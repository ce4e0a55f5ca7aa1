"""Orderings that a race reaches only by chance, made deterministic.

Each test holds one thread at an entry point (``interleave.hold``), runs
the operation that must come first, then lets the held thread go on.
"""

import threading
import time

from threadcache import Policy, RetentionConfig, current_task, retention
from threadcache.idle_store import IdleStore

from conftest import wait_until
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
        # a spawner that reads a store of one idle worker, and the reaper
        # culls that worker before the spawner's pop: the task must go to
        # a new worker, and the culled one must exit without running it
        age = 0.05
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=age,
                              reap_period=0.005)
        rt = runtime(enabled=True, retention=cfg)
        store = rt._store

        def culls_one(s, now, c):  # a pass that culls the idle worker
            idle = s.snapshot()
            return s is store and len(idle) == 1 and \
                idle[0].idle_since < now - int(age * 1e9)

        def pops_one(s):
            return s is store and s.count == 1

        with hold(monkeypatch, retention, "reap", when=culls_one) as reaper, \
                hold(monkeypatch, IdleStore, "pop", when=pops_one) as spawner:
            first = rt.spawn(lambda: None)
            first.join()
            culled = first.worker
            reaper.wait_held()
            ran_on = []

            def task():
                ran_on.append(current_task().worker)
                return 7

            out = []
            t = threading.Thread(target=lambda: out.append(rt.spawn(task)))
            t.start()
            spawner.wait_held()
            reaper.release()
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
