"""Acceptance-gate measurements: medians and workload semantics."""

import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threadcache.bench as bench
from threadcache import ThreadCache
from threadcache.bench import (GateError, forkjoin_ms, forkjoin_sort,
                               median_of, spawn_rate)

from conftest import one_cpu


class TestMedian:
    def test_singleton(self):
        assert median_of([3]) == 3

    def test_three(self):
        assert median_of([1, 9, 5]) == 5

    def test_seven_matches_sort_oracle(self):
        vals = [8.0, 1.5, 9.25, 3.0, 7.5, 2.0, 4.0]
        assert median_of(vals) == sorted(vals)[3]

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            median_of([1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_of([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=21).filter(lambda v: len(v) % 2 == 1))
    def test_matches_statistics_median(self, vals):
        assert median_of(vals) == statistics.median(vals)


class TestSpawnBench:
    def test_cached_run_produces_results(self):
        rate, snap = spawn_rate(1, 0.05, cached=True)
        assert rate > 0
        assert snap.spawns_total == snap.cache_hits + snap.physical_creates

    def test_default_mode_fidelity_no_cache_hits(self):
        assert spawn_rate(1, 0.05, cached=False)[1].cache_hits == 0

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
        vals = {}
        with one_cpu():  # as in spawn_ratio of test_acceptance.py
            for cached in (False, True):
                vals[cached] = median_of([forkjoin_ms(4096, 16, cached)[0]
                                          for _ in range(5)])
        assert vals[True] < vals[False]

    def test_sort_matches_builtin(self):
        import random
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

        monkeypatch.setattr(bench, "forkjoin_sort", corrupt)
        with pytest.raises(GateError):
            forkjoin_ms(1000, 256, cached=True)

    def test_bad_cutoff(self):
        rt = ThreadCache(enabled=True)
        try:
            with pytest.raises(ValueError):
                forkjoin_sort(rt, [1, 2], 0)
        finally:
            rt.shutdown(join=False)
