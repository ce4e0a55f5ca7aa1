"""Orderings that a race reaches only by chance, made deterministic.

Each test holds one thread at an entry point (``interleave.hold``), runs
the operation that must come first, then lets the held thread go on.
"""

import threading
import time

from threadcache import Policy, RetentionConfig, current_task
from threadcache.idle_store import IdleStore

from conftest import counted_reap, quiescent, wait_until
from interleave import hold


class TestShutdownRace:
    def test_push_held_across_shutdown_is_refused_and_exits(self, runtime,
                                                            monkeypatch):
        # what the 64-task race in test_runtime's TestShutdown hits at
        # random: a worker whose task is done pushes only after shutdown
        # has drained and closed the store
        rt = runtime(enabled=True)
        mine = lambda store, *a, **k: store is rt._store  # noqa: E731
        with hold(monkeypatch, IdleStore, "push", when=mine) as gate:
            h = rt.spawn(lambda: 5)
            gate.wait_held()
            assert h.join() == 5  # the latch fires before the push
            w = h.worker
            assert rt.stats().current_idle == 0
            rt.shutdown(join=False)
            assert rt._store.closed and w.is_alive()
        t0 = time.monotonic()
        w.join(1.0)
        assert not w.is_alive() and time.monotonic() - t0 < 1.0
        s = rt.stats()
        assert (s.physical_culls, s.current_idle) == (1, 0)
        assert rt._live == {}


class TestReapRace:
    def test_pop_held_across_a_cull_never_wakes_the_culled(self, runtime,
                                                           monkeypatch):
        # a spawner that reads a store of one idle worker, and that worker,
        # the store's timer, culls itself in its own pass before the
        # spawner's pop: the task must go to a new worker, and the culled
        # one must exit without running it
        age = 0.05
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=age,
                              reap_period=0.005)
        rt = runtime(enabled=True, retention=cfg)
        store = rt._store

        def culls_one(s, worker, now):  # a pass that culls the idle worker
            idle = s.snapshot()
            return s is store and idle == [worker] and \
                idle[0].idle_since < now - int(age * 1e9)

        def pops_one(s):
            return s is store and s.count == 1

        with hold(monkeypatch, IdleStore, "run_pass", when=culls_one) \
                as timer, \
                hold(monkeypatch, IdleStore, "pop", when=pops_one) as spawner:
            first = rt.spawn(lambda: None)
            first.join()
            culled = first.worker
            timer.wait_held()
            ran_on = []

            def task():
                ran_on.append(current_task().worker)
                return 7

            out = []
            t = threading.Thread(target=lambda: out.append(rt.spawn(task)))
            t.start()
            spawner.wait_held()
            timer.release()
            culled.join(1.0)
            assert not culled.is_alive()
            assert rt.stats().current_idle == 0
        t.join(1.0)
        assert not t.is_alive()
        h, = out
        assert h.join() == 7
        assert ran_on == [h.worker] and h.worker is not culled
        s = rt.stats()
        assert (s.cache_hits, s.physical_creates) == (0, 2)


class TestTimer:
    """The store's front worker times and runs every retention pass."""

    def test_timer_popped_mid_pass_overlaps_no_pass(self, runtime,
                                                    monkeypatch):
        # the timer is held at the entry of its pass and a spawn pops it;
        # the next worker to park claims the timer, and its own pass culls
        # it; let go, the held pass finds its caller no timer and does
        # nothing
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=60.0,
                              reap_period=0.005)
        rt = runtime(enabled=True, retention=cfg)
        store = rt._store
        seen = counted_reap(monkeypatch, store)
        mine = lambda s, *a: s is store  # noqa: E731
        with hold(monkeypatch, IdleStore, "run_pass", when=mine) as gate:
            rt.spawn(lambda: None).join()
            gate.wait_held()
            first = store.timer
            ran_on = []

            def task():
                ran_on.append(current_task().worker)
                return 7

            h = rt.spawn(task)  # pops the held timer: the store is empty
            assert h.worker is first and store.timer is None
            rt.spawn(lambda: None).join()  # a create, which parks
            assert wait_until(lambda: store.timer is not None)
            second = store.timer
            assert second is not first
            second.idle_since = 0  # idle for ever: its own pass culls it
            second.join(1.0)
            assert not second.is_alive() and store.timer is None
            assert seen["culled"] == 1 and not h.wait(0)
        assert h.join() == 7 and ran_on == [first]
        assert wait_until(lambda: quiescent(rt) and store.timer is first)
        s = rt.stats()
        assert (s.physical_creates, s.physical_culls, s.current_idle) == \
            (2, 1, 1)
        assert seen["culled"] == 1 and seen["most"] == 1

    def test_timer_culled_with_a_survivor_keeps_its_place(self, runtime):
        # AgeOut with two idle workers whose ages straddle max_idle_age:
        # the pass culls the timer, which stays at the front with the
        # survivor's stamp while the survivor exits in its stead
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=60.0,
                              reap_period=0.005)
        rt = runtime(enabled=True, retention=cfg)
        store = rt._store
        go = threading.Event()
        handles = [rt.spawn(go.wait, 5.0) for _ in range(2)]
        go.set()
        assert all(h.join() for h in handles)
        assert wait_until(lambda: store.count == 2)
        timer = store.timer
        young, = [h.worker for h in handles if h.worker is not timer]
        assert store.snapshot() == [young, timer]
        stamp = young.idle_since
        timer.idle_since = 0  # older than max_idle_age; young is not
        young.join(1.0)
        assert not young.is_alive()
        s = rt.stats()
        assert (s.physical_culls, s.current_idle) == (1, 1)
        assert store.snapshot() == [timer] and store.timer is timer
        assert timer.idle_since == stamp and timer.is_alive()
        assert quiescent(rt)

    def test_shutdown_during_a_pass_leaves_no_worker_parked(self, runtime,
                                                           monkeypatch):
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=60.0,
                              reap_period=0.005)
        rt = runtime(enabled=True, retention=cfg)
        store = rt._store
        mine = lambda s, *a: s is store  # noqa: E731
        with hold(monkeypatch, IdleStore, "run_pass", when=mine) as gate:
            go = threading.Event()
            handles = [rt.spawn(go.wait, 5.0) for _ in range(3)]
            go.set()
            assert all(h.join() for h in handles)
            gate.wait_held()
            workers = [h.worker for h in handles]
            rt.shutdown(join=False)
            assert store.timer is None and store.count == 0
        t0 = time.monotonic()
        rt.shutdown(join=True, timeout=1.0)
        assert time.monotonic() - t0 < 1.0
        assert not any(w.is_alive() for w in workers)
        assert rt._live == {}
        s = rt.stats()
        assert (s.physical_culls, s.current_idle) == (3, 0)
