"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time

import pytest

import child
import hist
import layers
import run
import workloads as wl
from spans import Tracer, self_times

tc = child.import_threadcache()


# -- histogram ---------------------------------------------------------------

def test_buckets_cover_every_value_once():
    for v in itertools.chain(range(0, 5000), (2**k + d for k in range(12, 44)
                                              for d in (-1, 0, 1))):
        i = hist.bucket_of(v)
        lo, hi = hist.bucket_bounds(i)
        assert lo <= v < hi
        assert hi - lo <= max(1, lo / hist.SUB)


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal", "ties"])
def test_percentiles_match_sorted_list_oracle(dist):
    rng = random.Random(dist)
    gen = {
        "uniform": lambda: rng.randrange(1, 10**6),
        "lognormal": lambda: int(rng.lognormvariate(10, 1.5)),
        "bimodal": lambda: rng.choice((15_000, 21_000)) + rng.randrange(500),
        "ties": lambda: rng.choice((7, 70, 700_000)),
    }[dist]
    values = [gen() for _ in range(5_001)]
    h = hist.LogHistogram()
    for v in values:
        h.add(v)
    ordered = sorted(values)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        oracle = ordered[math.ceil(q * len(values)) - 1]
        lo, hi = hist.bucket_bounds(hist.bucket_of(oracle))
        assert lo <= h.percentile(q) <= hi, (q, oracle)
    assert h.n == len(values)


def test_percentile_needs_ten_samples_beyond_it():
    h = hist.LogHistogram()
    for v in range(1, 1_000):   # 999 samples: rank 990 has 9 beyond it
        h.add(v)
    with pytest.raises(hist.TooFewSamples):
        h.percentile(0.99)
    h.add(1_000)                # 1000 samples: rank 990 has 10 beyond it
    assert 985 <= h.percentile(0.99) <= 995


# -- spans -------------------------------------------------------------------

def _row(sid, start, end, parent=-1):
    return (sid, f"s{sid}", start, end, 1, parent, 0)


def test_self_time_subtracts_union_of_direct_children():
    rows = [
        _row(0, 0, 100),
        _row(1, 10, 30, 0),
        _row(2, 20, 40, 0),     # overlaps sibling 1: union 10..40
        _row(3, 90, 120, 0),    # clipped to the parent's end: 90..100
        _row(4, 12, 18, 1),     # grandchild: counts against 1 only
        _row(5, 50, 50, 0),     # empty
    ]
    st = self_times(rows)
    assert st[0] == 100 - 30 - 10
    assert st[1] == 20 - 6
    assert st[2] == 20 and st[3] == 30 and st[4] == 6 and st[5] == 0


def test_tracer_links_nested_calls_per_thread():
    tr = Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap("inner", inner)
    outer_t = tr.wrap("outer", lambda x: inner_t(x) * 2,
                      key=lambda args, result: result)
    th = threading.Thread(target=outer_t, args=(4,))
    th.start()
    th.join()
    assert outer_t(1) == 4
    rows = tr.rows()
    by = {(r[1], r[6]): r for r in rows}
    assert len(rows) == 4
    outer_main = by[("outer", 4)]
    inner_main = [r for r in rows if r[1] == "inner"
                  and r[4] == outer_main[4]][0]
    assert inner_main[5] == outer_main[0]
    assert by[("outer", 10)][4] != outer_main[4]  # other thread, own stack
    assert all(v >= 0 for v in self_times(rows).values())


# -- inputs ------------------------------------------------------------------

def _take(seed, n=25):
    return list(itertools.islice(wl.burst_inputs(seed), n))


def test_same_seed_same_bursts():
    a, b = _take(7), _take(7)
    assert [x.styles for x in a] == [x.styles for x in b]
    assert [x.data for x in a] == [x.data for x in b]
    assert [x.gap_s for x in a] == [x.gap_s for x in b]
    assert all(1 <= len(x.styles) <= wl.MAX_FANOUT for x in a)
    assert {s for x in a for s in x.styles} == {wl.JOINED, wl.SIGNALLED,
                                                 wl.RAW}
    assert [x.styles for x in _take(8)] != [x.styles for x in a]


# -- correctness checks, one per failure kind --------------------------------

@pytest.fixture
def rt():
    r = tc.ThreadCache(enabled=True, retention=tc.RetentionConfig())
    yield r
    r.shutdown()


def test_clean_churn_has_no_failures(rt):
    t = wl.Tally()
    phase = wl.spawn_join(tc, rt, 1_000, t)
    wl.check_counters(rt, "churn", t)
    assert t.failed == 0 and t.attempted == 1_001
    assert phase.metrics()["latency_us.p50"] > 0


def test_wrong_join_value_fails(rt):
    t = wl.Tally()
    wl.spawn_join(tc, rt, 50, t, task=lambda i: i + (i == 3))
    assert t.failed == 1 and t.kinds == {"wrong_value": 1}
    assert t.error_rate == 1 / 50


def test_poisoned_task_fails(rt):
    def task(i):
        if i % 10 == 0:
            raise ValueError(i)
        return i
    t = wl.Tally()
    wl.spawn_join(tc, rt, 40, t, task=task)
    assert t.kinds == {"task_poisoned": 4} and t.error_rate == 4 / 40


class _FailingRuntime:
    def spawn(self, entry, arg):
        raise tc.SpawnError("no threads left")


def test_spawn_error_fails():
    t = wl.Tally()
    wl.spawn_join(tc, _FailingRuntime(), 5, t)
    assert t.kinds == {"spawn_error": 5} and t.error_rate == 1.0


class _StatsRuntime:
    def __init__(self, **counts):
        self.counts = counts

    def stats(self):
        return tc.CacheStats(**{"spawns_total": 0, "cache_hits": 0,
                                "physical_creates": 0, "physical_culls": 0,
                                "current_idle": 0, "peak_idle": 0,
                                **self.counts})


def test_broken_conservation_fails():
    t = wl.Tally()
    wl.check_counters(_StatsRuntime(spawns_total=3, cache_hits=1,
                                    physical_creates=1), "churn", t)
    assert t.kinds == {"conservation": 1} and t.error_rate == 1.0


def test_cache_hit_in_physical_fails():
    t = wl.Tally()
    wl.check_counters(_StatsRuntime(spawns_total=2, cache_hits=1,
                                    physical_creates=1), "physical", t)
    assert t.kinds == {"cache_hit": 1} and t.error_rate == 0.5


def test_clean_bursts_through_the_shim():
    from threadcache import shim
    r = wl.make_runtime(tc, "burst")
    shim.install(r)
    try:
        t = wl.Tally()
        phase = wl.bursts(r, wl.burst_inputs(3), 30, t)
    finally:
        shim.uninstall()
        r.shutdown()
    assert t.failed == 0 and t.attempted == 30
    assert phase.latency.n == 30 and r.stats().cache_hits > 0


def test_wrong_merge_fails():
    def bad_sort(out, j, chunk, done):
        wl.sort_into(out, j, chunk[1:], done)  # loses one value per chunk
    t = wl.Tally()
    wl.bursts(_StatsRuntime(), wl.burst_inputs(5), 4, t, body=bad_sort)
    assert t.kinds == {"merge_mismatch": 4} and t.error_rate == 1.0


def test_missing_signal_times_out(monkeypatch):
    monkeypatch.setattr(wl, "WAIT_TIMEOUT_S", 0.05)

    def silent(out, j, chunk, done):
        out[j] = sorted(chunk)  # never signals

    inp = wl.BurstInput([wl.SIGNALLED], [0.5, 0.25], [0.25, 0.5], 0.0)
    t = wl.Tally()
    assert not wl.one_burst(inp, threading.Semaphore(0), t, body=silent)
    assert t.kinds == {"timeout": 1}


# -- tracing -----------------------------------------------------------------

def test_traced_churn_reports_layers_and_undoes_wrappers(rt):
    from threadcache import runtime
    original = runtime.ThreadCache.__dict__["spawn"]
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        assert runtime.ThreadCache.__dict__["spawn"] is not original
        task = layers.traced_task(tracer, tc, wl.echo)
        t = wl.Tally()
        wl.spawn_join(tc, rt, 100, t, task=task)
    finally:
        undo()
    assert runtime.ThreadCache.__dict__["spawn"] is original
    per, counts = layers.analyze(tracer.rows())
    assert t.failed == 0
    assert counts["runtime.handoff_us"] == counts["runtime.wake_us"] == 100
    assert counts["runtime.spawn_us"] + counts["runtime.spawn_create_us"] \
        == 100
    assert per["runtime.handle_init_us.p50"] > 0
    assert per["idle_store.pop_hit_rate"] >= 0.99 - 1 / 100


# -- contract ----------------------------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(child.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_hung_child_is_killed_at_the_deadline():
    start = time.monotonic()
    with pytest.raises(run.ChildFailed):
        run.run_child(["--mode", "measure", "--workload", "churn",
                       "--seed", "1", "--seconds", "60"], start)
    assert time.monotonic() - start < 30


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(child.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
