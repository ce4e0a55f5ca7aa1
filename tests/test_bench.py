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
stats delta. With ``cached=False`` the runtime is built with caching
disabled (the THREADCACHE=0 semantics: every spawn is a physical create),
and a spawn run that records a cache hit fails the gate. ``paired`` runs a
measurement in both modes, pair by pair; callers take the median of an odd
number of runs. The gates raise ``GateError``, not ``assert``, so
``python -O`` keeps them.

The benchmark of record is ``perfbench/`` (see BENCHMARK.json).
"""

import random
import statistics
import threading
import time

import pytest

from threadcache import CacheStats, ThreadCache

from conftest import one_cpu


class GateError(RuntimeError):
    """A benchmark correctness gate failed."""


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


def paired(measure, runs):
    """The values of ``measure(cached)`` over ``runs`` pairs, as (default,
    cached) lists. The two modes alternate run by run, default first, so
    both runs of a pair see the same phase of the host and a slow stretch
    cannot land on one mode only."""
    default, cached = [], []
    for _ in range(runs):
        default.append(measure(False))
        cached.append(measure(True))
    return default, cached


def spawn_rate(creators, duration, cached):
    """Spawn+join cycles per second of K creators looping until a deadline,
    and the stats delta over the measurement."""
    rt = ThreadCache(enabled=cached)
    try:
        barrier = threading.Barrier(creators + 1)
        deadline = [0.0]

        def creator():
            barrier.wait()
            end = deadline[0]
            n = 0
            while time.monotonic() < end:
                rt.spawn(_child).join()
                n += 1
            return n

        handles = [rt.spawn(creator) for _ in range(creators)]
        before = rt.stats()
        deadline[0] = time.monotonic() + duration
        barrier.wait()
        cycles = sum(h.join() for h in handles)
        delta = _stats_delta(before, rt.stats())
        if not cached and delta.cache_hits != 0:
            raise GateError("default mode recorded cache hits")
        return cycles / duration, delta
    finally:
        rt.shutdown(join=True)  # the next run starts from a quiet process


def forkjoin_sort(rt, data, cutoff):
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


def forkjoin_ms(n, cutoff, cached):
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
        rt.shutdown(join=True)  # the next run starts from a quiet process


class TestSpawnBench:
    def test_cached_run_produces_results(self):
        rate, snap = spawn_rate(1, 0.05, cached=True)
        assert rate > 0
        assert snap.spawns_total == snap.cache_hits + snap.physical_creates

    def test_default_mode_fidelity_no_cache_hits(self):
        assert spawn_rate(1, 0.05, cached=False)[1].cache_hits == 0

    def test_cache_hit_in_default_mode_fails_gate(self, monkeypatch):
        # a runtime that caches although default mode turned caching off
        monkeypatch.setitem(globals(), "ThreadCache",
                            lambda enabled, real=ThreadCache: real(True))
        with pytest.raises(GateError):
            spawn_rate(1, 0.05, cached=False)

    def test_warmup_physical_creates_stop_growing(self):
        # second-half creation is a sliver of first-half creation
        rt = ThreadCache(enabled=True)
        try:
            def cycle_for(seconds):
                end = time.monotonic() + seconds
                while time.monotonic() < end:
                    rt.spawn(lambda: None).join()

            cycle_for(0.4)
            mid = rt.stats().physical_creates
            cycle_for(0.4)
            end = rt.stats().physical_creates
            assert end - mid <= max(1, 0.01 * mid)
        finally:
            rt.shutdown(join=False)


class TestForkJoin:
    def test_sorts_correctly_both_modes(self):
        for cached in (False, True):
            assert forkjoin_ms(20_000, 1024, cached)[0] > 0

    def test_cutoff_at_n_spawns_nothing(self):
        vals = {}
        for cached in (False, True):
            vals[cached], snap = forkjoin_ms(10_000, 10_000, cached)
            assert snap.spawns_total == 0
        # zero-thread case: the two modes run the same sequential code
        assert vals[True] < vals[False] * 5
        assert vals[False] < vals[True] * 5

    def test_cached_beats_default_when_spawns_dominate(self):
        with one_cpu():  # as in spawn_ratio of test_acceptance.py
            default, cached = paired(
                lambda c: forkjoin_ms(4096, 16, c)[0], runs=5)
        assert statistics.median(cached) < statistics.median(default)

    def test_sort_matches_builtin(self):
        rt = ThreadCache(enabled=True)
        try:
            rng = random.Random(7)
            data = [rng.random() for _ in range(5000)]
            assert forkjoin_sort(rt, list(data), 256) == sorted(data)
        finally:
            rt.shutdown(join=False)

    def test_sorted_but_wrong_output_fails_gate(self, monkeypatch):
        # sorted and of the right length, yet one element is dropped and
        # another duplicated: only out == sorted(data) catches it
        def corrupt(rt, data, cutoff):
            out = sorted(data)
            out[-1] = out[-2]
            return out

        monkeypatch.setitem(globals(), "forkjoin_sort", corrupt)
        with pytest.raises(GateError):
            forkjoin_ms(1000, 256, cached=True)

    def test_bad_cutoff(self):
        rt = ThreadCache(enabled=True)
        try:
            with pytest.raises(ValueError):
                forkjoin_sort(rt, [1, 2], 0)
        finally:
            rt.shutdown(join=False)
