"""Benchmark harness: medians, CSV plumbing, workload semantics."""

import io
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threadcache.bench as bench
from threadcache import ThreadCache
from threadcache.bench import (BenchConfig, Deferred, GateError, forkjoin_sort,
                               median_of, read_results, run_sweep,
                               run_workload)

FAST = dict(duration=0.05, runs=1, mode="cached")


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


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"workload": "nope"},
        {"mode": "nope"},
        {"duration": 0},
        {"runs": 2},
        {"runs": 0},
        {"creators": 0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            BenchConfig(**kw)

    def test_runs_default_is_odd_seven(self):
        assert BenchConfig().runs == 7

    def test_modes_expansion(self):
        assert BenchConfig(mode="both").modes == ["default", "cached"]
        assert BenchConfig(mode="cached").modes == ["cached"]


class TestDeferred:
    def test_never_demanded_creates_no_thread(self):
        rt = ThreadCache(enabled=True)
        try:
            d = Deferred(rt, lambda: 1)
            assert not d.demanded
            s = rt.stats()
            assert (s.spawns_total, s.physical_creates) == (0, 0)
        finally:
            rt.shutdown(join=False)

    def test_demand_materializes_and_joins(self):
        rt = ThreadCache(enabled=True)
        try:
            d = Deferred(rt, lambda: 17)
            assert d.result() == 17
            assert d.demanded
            assert rt.stats().spawns_total == 1
        finally:
            rt.shutdown(join=False)


class TestSpawnBench:
    def test_cached_run_produces_results(self):
        cfg = BenchConfig(workload="spawn", **FAST)
        results = run_workload(cfg, "cached")
        assert len(results) == 1
        r = results[0]
        assert r.value > 0
        assert r.unit == "threads/second"
        snap = r.stats_snapshot
        assert snap.spawns_total == snap.cache_hits + snap.physical_creates

    def test_default_mode_fidelity_no_cache_hits(self):
        cfg = BenchConfig(workload="spawn", duration=0.05, runs=1,
                          mode="default")
        r = run_workload(cfg, "default")[0]
        assert r.stats_snapshot.cache_hits == 0

    def test_spin_child_slows_throughput(self):
        base = BenchConfig(workload="spawn", **FAST)
        spun = BenchConfig(workload="spawn", spin_ns=200_000, **FAST)
        v0 = run_workload(base, "cached")[0].value
        v1 = run_workload(spun, "cached")[0].value
        assert v1 < v0

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


class TestDeferredBench:
    def test_run_shape(self):
        cfg = BenchConfig(workload="deferred", **FAST)
        r = run_workload(cfg, "cached")[0]
        assert r.value > 0
        assert r.unit == "threads/second"


class TestForkJoin:
    def test_sorts_correctly_both_modes(self):
        for mode in ("default", "cached"):
            cfg = BenchConfig(workload="forkjoin", runs=1, mode=mode,
                              forkjoin_n=20_000, cutoff=1024)
            r = run_workload(cfg, mode)[0]
            assert r.value > 0
            assert r.unit == "milliseconds"

    def test_cutoff_at_n_spawns_nothing(self):
        vals = {}
        for mode in ("default", "cached"):
            cfg = BenchConfig(workload="forkjoin", runs=1, mode=mode,
                              forkjoin_n=10_000, cutoff=10_000)
            r = run_workload(cfg, mode)[0]
            assert r.stats_snapshot.spawns_total == 0
            vals[mode] = r.value
        # zero-thread case: the two modes run the same sequential code
        assert vals["cached"] < vals["default"] * 5
        assert vals["default"] < vals["cached"] * 5

    def test_cached_beats_default_when_spawns_dominate(self):
        vals = {}
        for mode in ("default", "cached"):
            cfg = BenchConfig(workload="forkjoin", runs=5, mode=mode,
                              forkjoin_n=4096, cutoff=16)
            vals[mode] = median_of([r.value
                                    for r in run_workload(cfg, mode)])
        assert vals["cached"] < vals["default"]

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
        cfg = BenchConfig(workload="forkjoin", runs=1, mode="cached",
                          forkjoin_n=1000, cutoff=256)
        with pytest.raises(GateError):
            run_workload(cfg, "cached")

    def test_bad_cutoff(self):
        rt = ThreadCache(enabled=True)
        try:
            with pytest.raises(ValueError):
                forkjoin_sort(rt, [1, 2], 0)
        finally:
            rt.shutdown(join=False)


class TestSweepCsv:
    def test_grid_arithmetic(self):
        cfg = BenchConfig(workload="spawn", duration=0.05, runs=3,
                          mode="both", sweep=[1, 2])
        buf = io.StringIO()
        run_sweep(cfg, buf)
        buf.seek(0)
        data, medians = read_results(buf)
        assert len(data) == 2 * 2 * 3  # modes x sweep points x runs
        assert len(medians) == 4

    def test_csv_roundtrip_reproduces_medians(self):
        cfg = BenchConfig(workload="spawn", duration=0.05, runs=3,
                          mode="cached", sweep=[1])
        buf = io.StringIO()
        run_sweep(cfg, buf)
        buf.seek(0)
        data, medians = read_results(buf)
        recomputed = median_of([row["value"] for row in data])
        assert medians[0]["value"] == recomputed

    def test_header_validation(self):
        with pytest.raises(ValueError):
            read_results(io.StringIO("a,b,c\n1,2,3\n"))


class TestCli:
    def test_cli_writes_csv_and_exits_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = bench.main(["--workload", "spawn", "--duration", "0.05",
                         "--runs", "1", "--creators", "1",
                         "--mode", "cached", "--csv", str(out)])
        assert rc == 0
        with open(out) as f:
            data, medians = read_results(f)
        assert len(data) == 1 and len(medians) == 1

    def test_cli_gate_failure_exits_nonzero(self, monkeypatch, tmp_path):
        def boom(cfg, mode):
            raise GateError("forced")

        monkeypatch.setitem(bench._RUNNERS, "spawn", boom)
        rc = bench.main(["--workload", "spawn", "--duration", "0.05",
                         "--runs", "1", "--mode", "cached",
                         "--csv", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_cli_sweep_parsing(self):
        args = bench.build_parser().parse_args(["--sweep", "1,2,4"])
        assert args.sweep == [1, 2, 4]
        with pytest.raises(SystemExit):
            bench.build_parser().parse_args(["--sweep", "0,x"])
