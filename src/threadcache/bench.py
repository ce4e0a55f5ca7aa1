"""Acceptance-gate measurements: the spawn rate and the fork-join sort.

``spawn_rate`` runs K independent creator threads, each looping "spawn a
child that returns at once, join it". The value is completed join cycles
per second over the measurement interval: counting completed cycles, not
initiated spawns, avoids end-of-interval truncation bias.

``forkjoin_ms`` sorts a pseudorandom array by recursive divide-and-conquer,
spawning one logical thread per subproblem above a cutoff, and reports
elapsed milliseconds; output equal to ``sorted(data)`` is a hard
correctness gate.

Each call is one run on a fresh runtime and also returns the runtime's
stats delta; callers take the median of an odd number of runs. With
``cached=False`` the runtime is built with caching disabled (the
THREADCACHE=0 semantics: every spawn is a physical create), and a spawn
run that records a cache hit fails the gate.

Only the acceptance tests use this module; the benchmark of record is
``perfbench/`` (see BENCHMARK.json).
"""

from __future__ import annotations

import random
import threading
import time
from typing import List, Sequence, Tuple

from .runtime import CacheStats, ThreadCache


class GateError(RuntimeError):
    """A benchmark correctness gate failed."""


def median_of(values: Sequence[float]) -> float:
    """Middle order statistic; the run count must be odd."""
    n = len(values)
    if n == 0 or n % 2 == 0:
        raise ValueError("median requires an odd number of values")
    return sorted(values)[n // 2]


def _child():
    pass


def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(
        spawns_total=after.spawns_total - before.spawns_total,
        cache_hits=after.cache_hits - before.cache_hits,
        physical_creates=after.physical_creates - before.physical_creates,
        physical_culls=after.physical_culls - before.physical_culls,
        current_idle=after.current_idle,
        peak_idle=after.peak_idle,
    )


def spawn_rate(creators: int, duration: float,
               cached: bool) -> Tuple[float, CacheStats]:
    """Spawn+join cycles per second of K creators looping until a deadline,
    and the stats delta over the measurement."""
    rt = ThreadCache(enabled=cached)
    try:
        counts = [None] * creators
        barrier = threading.Barrier(creators + 1)
        deadline = [0.0]

        def creator(i):
            barrier.wait()
            end = deadline[0]
            n = 0
            while time.monotonic() < end:
                rt.spawn(_child).join()
                n += 1
            counts[i] = n

        for i in range(creators):
            rt.spawn(creator, i)
        before = rt.stats()
        deadline[0] = time.monotonic() + duration
        barrier.wait()
        end = deadline[0]
        while time.monotonic() < end:
            time.sleep(min(0.05, max(0.0, end - time.monotonic())))
        # creators observe the same deadline; wait for them to retire
        while any(c is None for c in counts):
            time.sleep(0.001)
        delta = _stats_delta(before, rt.stats())
        if not cached and delta.cache_hits != 0:
            raise GateError("default mode recorded cache hits")
        return sum(counts) / duration, delta
    finally:
        rt.shutdown(join=False)


def forkjoin_sort(rt: ThreadCache, data: List, cutoff: int) -> List:
    """Sort by recursive halving; one spawned logical thread per split."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")

    def sort_range(arr):
        if len(arr) <= cutoff:
            arr.sort()
            return arr
        mid = len(arr) // 2
        handle = rt.spawn(sort_range, arr[:mid])
        right = sort_range(arr[mid:])
        left = handle.join()
        merged = left + right
        merged.sort()  # timsort merges the two sorted runs near-linearly
        return merged

    return sort_range(data)


def forkjoin_ms(n: int, cutoff: int,
                cached: bool) -> Tuple[float, CacheStats]:
    """Elapsed ms of ``forkjoin_sort`` over n seeded floats, and the stats
    delta; raises GateError unless the output is ``sorted(data)``."""
    rng = random.Random(0)
    data = [rng.random() for _ in range(n)]
    # taken before the run: forkjoin_sort may sort data in place
    expected = sorted(data)
    rt = ThreadCache(enabled=cached)
    try:
        before = rt.stats()
        t0 = time.monotonic()
        out = forkjoin_sort(rt, data, cutoff)
        elapsed_ms = (time.monotonic() - t0) * 1e3
        after = rt.stats()
        if out != expected:
            raise GateError("fork-join output is not sorted(data)")
        return elapsed_ms, _stats_delta(before, after)
    finally:
        rt.shutdown(join=False)
