"""Acceptance-gate measurements: the spawn rate and the fork-join sort.

``spawn`` runs K independent creator threads, each looping "spawn a child
that returns at once, join it". The value is completed join cycles per
second over the measurement interval: counting completed cycles, not
initiated spawns, avoids end-of-interval truncation bias.

``forkjoin`` sorts a pseudorandom array by recursive divide-and-conquer,
spawning one logical thread per subproblem above a cutoff, and reports
elapsed milliseconds; output equal to ``sorted(data)`` is a hard
correctness gate.

Results aggregate as the median of an odd number of runs. In ``default``
mode the runtime is built with caching disabled (the THREADCACHE=0
semantics: every spawn is a physical create), and a spawn run that records
a cache hit fails the gate.

Only the acceptance tests use this module; the benchmark of record is
``perfbench/`` (see BENCHMARK.json).
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Sequence

from .runtime import CacheStats, SpawnError, ThreadCache

log = logging.getLogger(__name__)

WORKLOADS = ("spawn", "forkjoin")
MODES = ("default", "cached", "both")


class GateError(RuntimeError):
    """A benchmark correctness gate failed."""


@dataclass
class BenchConfig:
    workload: str = "spawn"
    creators: int = 1
    duration: float = 10.0
    runs: int = 7
    mode: str = "both"
    forkjoin_n: int = 1_000_000
    cutoff: int = 8192

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.runs < 1 or self.runs % 2 == 0:
            raise ValueError("runs must be a positive odd count")
        if self.creators < 1:
            raise ValueError("creators must be >= 1")

    @property
    def modes(self) -> List[str]:
        return ["default", "cached"] if self.mode == "both" else [self.mode]


@dataclass
class BenchResult:
    value: float  # threads/second, or elapsed ms for forkjoin
    stats_snapshot: CacheStats


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


def _run_repeated(cfg: BenchConfig, one_run) -> List[BenchResult]:
    results = []
    attempts = 0
    while len(results) < cfg.runs:
        try:
            results.append(BenchResult(*one_run()))
        except SpawnError as exc:
            attempts += 1
            log.warning("run discarded after spawn failure: %s", exc)
            if attempts > 3 * cfg.runs:
                raise
    return results


def run_spawn_bench(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    def one_run():
        """K creators loop spawn+join until the deadline."""
        rt = ThreadCache(enabled=(mode == "cached"))
        try:
            counts = [None] * cfg.creators
            barrier = threading.Barrier(cfg.creators + 1)
            deadline = [0.0]

            def creator(i):
                barrier.wait()
                end = deadline[0]
                n = 0
                while time.monotonic() < end:
                    rt.spawn(_child).join()
                    n += 1
                counts[i] = n

            for i in range(cfg.creators):
                rt.spawn(creator, i)
            before = rt.stats()
            deadline[0] = time.monotonic() + cfg.duration
            barrier.wait()
            end = deadline[0]
            while time.monotonic() < end:
                time.sleep(min(0.05, max(0.0, end - time.monotonic())))
            # creators observe the same deadline; wait for them to retire
            while any(c is None for c in counts):
                time.sleep(0.001)
            delta = _stats_delta(before, rt.stats())
            if mode == "default" and delta.cache_hits != 0:
                raise GateError("default mode recorded cache hits")
            return sum(counts) / cfg.duration, delta
        finally:
            rt.shutdown(join=False)

    return _run_repeated(cfg, one_run)


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


def run_forkjoin_bench(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    def one_run():
        rng = random.Random(0)
        data = [rng.random() for _ in range(cfg.forkjoin_n)]
        # taken before the run: forkjoin_sort may sort data in place
        expected = sorted(data)
        rt = ThreadCache(enabled=(mode == "cached"))
        try:
            before = rt.stats()
            t0 = time.monotonic()
            out = forkjoin_sort(rt, data, cfg.cutoff)
            elapsed_ms = (time.monotonic() - t0) * 1e3
            after = rt.stats()
            if out != expected:
                raise GateError("fork-join output is not sorted(data)")
            return elapsed_ms, _stats_delta(before, after)
        finally:
            rt.shutdown(join=False)

    return _run_repeated(cfg, one_run)


def run_workload(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    run = run_spawn_bench if cfg.workload == "spawn" else run_forkjoin_bench
    return run(cfg, mode)
