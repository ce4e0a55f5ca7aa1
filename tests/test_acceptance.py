"""Acceptance gate: one test per criterion, one printed verdict line each.

Performance criteria (1-3) default to a reduced schedule (shorter runs,
fewer repetitions) so the gate fits an interactive budget; set
THREADCACHE_ACCEPT_FULL=1 for the full-scale 7x10s measurement.
"""

import os
import random
import statistics

import pytest

from threadcache import ThreadCache, logical_exit

from conftest import one_cpu
from test_bench import forkjoin_ms, paired, spawn_rate
from test_idle_store import run_stress
from test_retention import random_config, random_script, run_script_pair
from test_runtime import run_idle_bound_schedule
from test_shim import CORPUS
import threadcache.shim as shim

FULL = os.environ.get("THREADCACHE_ACCEPT_FULL") == "1"
DURATION = 10.0 if FULL else 1.5
RUNS = 7 if FULL else 3
CPUS = os.cpu_count() or 1


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(criterion, ok, detail):
    """Emit one verdict line per criterion, visible even without -s."""
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def spawn_ratio(creators):
    """Median over RUNS pairs of the cached/default spawn-rate ratio, and
    each mode's median rate. All threads share one CPU, so cross-CPU
    wake-ups do not set the ratio."""
    with one_cpu():
        default, cached = paired(
            lambda c: spawn_rate(creators, DURATION, c)[0], RUNS)
    ratio = statistics.median(c / d for c, d in zip(cached, default))
    return ratio, statistics.median(cached), statistics.median(default)


def test_criterion_1_speedup_single_creator():
    ratio, cached, default = spawn_ratio(creators=1)
    report(1, ratio >= 2.0,
           f"1-creator cached/default ratio {ratio:.2f} (median of {RUNS} "
           f"pairs; cached {cached:.0f}/s, default {default:.0f}/s), "
           f"threshold 2.0")


def test_criterion_2_speedup_cpu_count_creators():
    ratio, _, _ = spawn_ratio(creators=CPUS)
    report(2, ratio >= 3.0,
           f"{CPUS}-creator cached/default ratio {ratio:.2f} (median of "
           f"{RUNS} pairs), threshold 3.0")


def test_criterion_3_sweep_dominance():
    sweep = []
    k = 1
    while k < CPUS:
        sweep.append(k)
        k *= 2
    sweep.append(CPUS)
    medians = {}  # K -> (cached, default) median rates
    for k in sweep:
        default, cached = paired(
            lambda c: spawn_rate(k, max(0.5, DURATION / 2), c)[0], RUNS)
        medians[k] = statistics.median(cached), statistics.median(default)
    losses = [k for k in sweep if medians[k][0] < medians[k][1]]
    points = "; ".join(f"K={k} cached {medians[k][0]:.0f}/s "
                       f"default {medians[k][1]:.0f}/s" for k in sweep)
    report(3, not losses,
           f"sweep {sweep}: cached median >= default median at every point"
           + (f" EXCEPT {losses}" if losses else "") + f" ({points})")


def test_criterion_4_reuse_accounting():
    creators = 2
    _, snap = spawn_rate(creators, DURATION, cached=True)
    conserved = snap.spawns_total == snap.cache_hits + snap.physical_creates
    hit_rate = snap.cache_hits / snap.spawns_total
    bounded = snap.physical_creates <= 2 * creators
    report(4, conserved and hit_rate > 0.99 and bounded,
           f"spawns={snap.spawns_total} hits={snap.cache_hits} "
           f"creates={snap.physical_creates} hit-rate={hit_rate:.4f} "
           f"(conservation={conserved}, >99%={hit_rate > 0.99}, "
           f"creates<=2K={bounded})")


def test_criterion_5_n_minus_1_bound():
    rng = random.Random(0xC5)
    schedules = 1000
    for _ in range(schedules):
        max_live = rng.randrange(3, 65)  # orchestrator + up to 63 children
        run_idle_bound_schedule(rng, max_live=max_live,
                                steps=rng.randrange(10, 31))
    report(5, True,
           f"{schedules} randomized schedules (<=64 logical threads): "
           f"current_idle never exceeded max-concurrent-live - 1")


def test_criterion_6_policy_oracle_equivalence():
    rng = random.Random(0xC6)
    scripts = 10_000
    for _ in range(scripts):
        run_script_pair(random_config(rng), random_script(rng, length=30))
    report(6, True,
           f"{scripts} randomized scripts: Clamp/AgeOut/IntegralBudget "
           f"decisions identical to the scalar simulator")


def test_criterion_7_post_reap_invariants():
    # run_script_pair asserts the per-policy invariant after every step;
    # drive tick-heavy scripts so a large number of reaps are exercised.
    rng = random.Random(0xC7)
    reaps = 0
    for _ in range(2000):
        cfg = random_config(rng)
        script = random_script(rng, length=30)
        reaps += sum(1 for ev in script if ev.kind == "tick")
        run_script_pair(cfg, script)
    report(7, reaps > 5000,
           f"{reaps} reaps checked: count<=clamp (Clamp), "
           f"age<=max_idle_age (AgeOut), integral<=budget (IntegralBudget) "
           f"held after every one")


def test_criterion_8_idle_store_stress():
    want, got = run_stress(n_ops=1_000_000, pushers=8, poppers=8)
    # single-threaded subsequence: LIFO order is exact
    from threadcache.idle_store import IdleStore
    from conftest import FakeWorker
    s = IdleStore()
    ws = [FakeWorker(i) for i in range(100)]
    for w in ws:
        s.push(w)
    lifo_ok = [s.pop() for _ in range(100)] == list(reversed(ws))
    report(8, len(want) == len(got) and lifo_ok,
           f"8x8 pushers/poppers, {len(want) * 2} ops: conservation exact "
           f"(multiset audit), single-threaded LIFO order verified")


def test_criterion_9_shim_conformance():
    mismatches = []
    for entry in CORPUS:
        plain = entry()
        rt = ThreadCache(enabled=True)
        shim.install(rt)
        try:
            patched = entry()
        finally:
            shim.uninstall()
            rt.shutdown(join=False)
        if patched != plain:
            mismatches.append((entry.__name__, plain, patched))
    sort_ok = True
    for cached in (False, True):
        sort_ok = sort_ok and forkjoin_ms(50_000, 2048, cached)[0] > 0
    report(9, not mismatches and sort_ok,
           f"{len(CORPUS)}-program corpus identical with/without shim"
           + (f" EXCEPT {mismatches}" if mismatches else "")
           + "; fork-join sort output sorted in all modes")


def test_criterion_10_join_semantics():
    rt = ThreadCache(enabled=True)
    rng = random.Random(0xCA)
    schedules = 100_000
    statuses = [None, 0, 17, -3, "done", ("a", 1)]

    def deep(depth, status):
        if depth == 0:
            logical_exit(status)
        deep(depth - 1, status)

    try:
        for i in range(schedules):
            status = statuses[i % len(statuses)]
            kind = i % 3
            if kind == 0:
                handle = rt.spawn(lambda s=status: s)
            elif kind == 1:
                handle = rt.spawn(lambda s=status: logical_exit(s))
            else:
                depth = rng.randrange(1, 30)
                handle = rt.spawn(lambda d=depth, s=status: deep(d, s))
            if i % 5 == 0:
                # post-completion join: let the task finish first
                handle.wait()
            assert handle.join() == status
            assert handle.wait(0)
        report(10, True,
               f"{schedules} randomized schedules: joined status matched "
               f"entry return / logical_exit (incl. deep unwind and "
               f"post-completion joins)")
    finally:
        rt.shutdown(join=False)
