"""Runtime: spawn/join/detach semantics, recycling, counters, invariants."""

import functools
import gc
import json
import os
import random
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threadcache
from threadcache import (DeadlockError, Policy, RetentionConfig, SpawnError,
                         TaskPoisoned, ThreadCache, UsageError, current_task,
                         logical_exit)

from conftest import (counted_reap, net_new_objects, one_cpu, quiescent,
                      reap_child, wait_until)


def run_script(script: str) -> subprocess.CompletedProcess:
    """script, run by a fresh interpreter that imports this threadcache."""
    src = os.path.dirname(os.path.dirname(threadcache.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def test_package_root_exports_only_the_api():
    assert sorted(threadcache.__all__) == [
        "CacheStats", "DeadlockError", "JoinHandle", "Policy",
        "RetentionConfig", "SpawnError", "TaskPoisoned", "ThreadCache",
        "UsageError", "current_task", "logical_exit"]
    for name in threadcache.__all__:
        getattr(threadcache, name)
    # what the benchmark and scripts/ read from the package root
    assert {"ThreadCache", "RetentionConfig", "Policy", "SpawnError",
            "TaskPoisoned", "CacheStats",
            "current_task"} <= set(threadcache.__all__)


class TestSpawnJoin:
    def test_cold_runtime_single_spawn(self, runtime):
        rt = runtime(enabled=True)
        assert rt.spawn(lambda: 7).join() == 7
        st_ = rt.stats()
        assert st_.physical_creates == 1
        assert st_.cache_hits == 0
        assert st_.spawns_total == 1

    def test_second_spawn_hits_cache(self, runtime):
        rt = runtime(enabled=True)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        rt.spawn(lambda: None).join()
        st_ = rt.stats()
        assert st_.cache_hits == 1
        assert st_.physical_creates == 1
        assert st_.spawns_total == 2

    def test_entry_argument_passed(self, runtime):
        rt = runtime(enabled=True)
        assert rt.spawn(lambda x: x * 2, 21).join() == 42

    def test_fresh_runtime_stats_all_zero(self, runtime):
        rt = runtime(enabled=True)
        s = rt.stats()
        assert (s.spawns_total, s.cache_hits, s.physical_creates,
                s.physical_culls, s.current_idle, s.peak_idle) == (0,) * 6

    def test_entry_none_rejected(self, runtime):
        rt = runtime(enabled=True)
        for entry in (None, 5):  # any entry that is not callable
            with pytest.raises(UsageError, match="entry must be callable"):
                rt.spawn(entry)
        assert rt.stats().spawns_total == 0

    def test_back_to_back_tasks_share_worker(self, runtime):
        rt = runtime(enabled=True)
        h1 = rt.spawn(lambda: 1)
        assert h1.join() == 1
        assert wait_until(lambda: rt.stats().current_idle == 1)
        h2 = rt.spawn(lambda: 2)
        assert h2.join() == 2
        assert h1.worker is h2.worker

    def test_join_from_other_thread(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: "done")
        out = []
        t = threading.Thread(target=lambda: out.append(h.join()))
        t.start()
        t.join()
        assert out == ["done"]

    def test_join_blocks_until_slow_start(self, runtime):
        rt = runtime(enabled=True)

        def entry():
            time.sleep(0.05)
            return 9

        t0 = time.monotonic()
        assert rt.spawn(entry).join() == 9
        assert time.monotonic() - t0 >= 0.045

    def test_join_after_completion_returns_immediately(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 3)
        assert wait_until(lambda: h.wait(0))
        t0 = time.monotonic()
        assert h.join() == 3
        assert time.monotonic() - t0 < 0.1

    def test_double_join_errors_without_blocking(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1)
        assert h.join() == 1
        with pytest.raises(UsageError):
            h.join()

    def test_self_join_is_deadlock_error(self, runtime):
        rt = runtime(enabled=True)
        slot = {}
        ready = threading.Event()

        def selfjoin():
            ready.wait(2.0)
            try:
                slot["h"].join()
                return "no-error"
            except DeadlockError:
                return "deadlock"

        slot["h"] = rt.spawn(selfjoin)
        ready.set()
        assert slot["h"].join() == "deadlock"

    def test_negative_wait_timeout_polls(self, runtime):
        # as threading.Thread.join: a negative timeout does not block
        rt = runtime(enabled=True)
        go = threading.Event()
        h = rt.spawn(go.wait, 5.0)
        t0 = time.monotonic()
        assert h.wait(-0.5) is False
        assert h.wait(-1) is False
        assert time.monotonic() - t0 < 1.0
        go.set()
        assert h.wait(5.0)
        assert h.wait(-0.5) is True
        assert h.join() is True


class TestDetach:
    def test_detach_then_complete_caches_worker(self, runtime):
        rt = runtime(enabled=True)
        gate = threading.Event()
        h = rt.spawn(gate.wait)
        h.detach()
        gate.set()
        assert wait_until(lambda: rt.stats().current_idle == 1)

    def test_detach_after_join_errors(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1)
        h.join()
        with pytest.raises(UsageError):
            h.detach()

    def test_double_detach_errors(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1)
        h.detach()
        with pytest.raises(UsageError):
            h.detach()

    def test_join_after_detach_errors(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1)
        h.detach()
        with pytest.raises(UsageError):
            h.join()

    def test_many_detached_tasks_few_physical_creates(self, runtime):
        # children retire before the next spawn (they are "short"): the
        # LIFO top is then always warm and at most the first two spawns
        # can miss the cache
        rt = runtime(enabled=True)
        for i in range(1000):
            h = rt.spawn(lambda: None)
            h.detach()
            assert wait_until(lambda: h.wait(0) and
                              rt.stats().current_idle >= 1)
        s = rt.stats()
        assert s.spawns_total == 1000
        assert s.spawns_total == s.cache_hits + s.physical_creates
        assert s.physical_creates <= 2

    def test_detached_burst_reuse_dominates(self, runtime):
        # an unpaced burst can outrun worker scheduling (the spawner holds
        # the interpreter), but recycling must still dominate creation
        rt = runtime(enabled=True)
        handles = []
        for _ in range(1000):
            h = rt.spawn(lambda: None)
            h.detach()
            handles.append(h)
        assert wait_until(lambda: all(h.wait(0) for h in handles))
        s = rt.stats()
        assert s.spawns_total == 1000
        assert s.spawns_total == s.cache_hits + s.physical_creates
        assert s.cache_hits >= 900


class TestLogicalExit:
    def test_immediate_exit(self, runtime):
        rt = runtime(enabled=True)
        assert rt.spawn(lambda: logical_exit(5)).join() == 5

    def test_exit_from_depth_recycles_worker(self, runtime):
        rt = runtime(enabled=True)

        def deep(n):
            if n == 0:
                logical_exit("deep")
            deep(n - 1)

        assert rt.spawn(deep, 3).join() == "deep"
        assert wait_until(lambda: rt.stats().current_idle == 1)
        assert rt.spawn(lambda: "next").join() == "next"
        s = rt.stats()
        assert s.physical_creates == 1  # the exit-from-depth worker recycled

    def test_cleanup_handlers_run_during_unwind(self, runtime):
        rt = runtime(enabled=True)
        ran = []

        def entry():
            try:
                logical_exit(1)
            finally:
                ran.append("cleanup")

        assert rt.spawn(entry).join() == 1
        assert ran == ["cleanup"]

    def test_unmanaged_thread_falls_through(self, runtime):
        rt = runtime(enabled=True)
        before = rt.stats()
        outcome = []

        def unmanaged():
            try:
                logical_exit(3)
            except SystemExit as exc:  # genuine thread termination path
                outcome.append(exc.code)
            finally:
                outcome.append("terminating")

        t = threading.Thread(target=unmanaged)
        t.start()
        t.join(2.0)
        assert not t.is_alive()
        assert outcome == [3, "terminating"]
        assert rt.stats() == before


def probe_context():
    """current_task(), its worker and the code of the SystemExit that
    logical_exit raises, on any thread."""
    try:
        logical_exit("probe")
    except SystemExit as exc:
        task = current_task()
        return task, task and task.worker, exc.code


class TestTaskContext:
    def test_main_and_plain_threads_have_no_context(self, runtime):
        rt = runtime(enabled=True)
        rt.spawn(lambda: None).join()  # a worker has set its own context
        out = [probe_context()]
        t = threading.Thread(target=lambda: out.append(probe_context()))
        t.start()
        t.join(5.0)
        assert not t.is_alive()
        assert out == [(None, None, "probe")] * 2

    def test_task_sees_its_handle_and_worker(self, runtime):
        rt = runtime(enabled=True)
        for _ in range(3):  # a cold worker, then the same worker recycled
            h = rt.spawn(probe_context)
            task, worker, code = h.join()
            assert task is h
            assert worker is h.worker
            assert code == "probe"
            assert wait_until(lambda: rt.stats().current_idle == 1)
        assert rt.stats().physical_creates == 1

    def test_handle_holds_its_worker_when_spawn_returns(self, runtime):
        # on a hit under one CPU the worker has not run when spawn returns
        rt = runtime(enabled=True)
        with one_cpu():
            for _ in range(2):  # a create, then a hit on the same worker
                h = rt.spawn(lambda: current_task().worker)
                worker = h.worker
                assert worker is not None
                assert h.join() is worker
                assert wait_until(lambda: rt.stats().current_idle == 1)
        s = rt.stats()
        assert (s.physical_creates, s.cache_hits) == (1, 1)


def idle_workers(rt, n):
    go = threading.Event()
    handles = [rt.spawn(go.wait, 5.0) for _ in range(n)]
    go.set()
    assert all(h.join() for h in handles)
    assert wait_until(lambda: rt.stats().current_idle == n)


def forked_child_exit_code():
    """Fork; the child checks threading's view of its only thread and exits
    with 0 when it holds, 1 otherwise."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            me = threading.current_thread()
            if (threading.enumerate() == [me]
                    and threading.active_count() == 1
                    and me.ident == threading.get_ident()
                    and me.is_alive() and me.name in repr(me)):
                code = 0
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class TestThreadingRecord:
    """threading sees each worker as it sees a daemon threading.Thread."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_current_thread_inside_a_task(self, runtime, monkeypatch,
                                          enabled):
        dummies = []
        dummy_init = threading._DummyThread.__init__

        def count_dummy(self):
            dummies.append(threading.get_ident())
            dummy_init(self)

        monkeypatch.setattr(threading._DummyThread, "__init__", count_dummy)
        rt = runtime(enabled=enabled)

        def probe():
            me = threading.current_thread()
            return (me.name, me.ident == threading.get_ident(), me.daemon,
                    me.is_alive(), me.name in repr(me),
                    str(me.ident) in repr(me), me is current_task().worker)

        for _ in range(3):  # a cold worker, then (cached) the same one
            h = rt.spawn(probe)
            name = f"threadcache-worker-{h.worker.worker_id}"
            assert h.join() == (name, True, True, True, True, True, True)
            assert wait_until(lambda: quiescent(rt))
        assert dummies == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_enumerate_counts_idle_and_running_workers(self, runtime,
                                                        enabled):
        assert wait_until(lambda: not any(
            t.name.startswith("threadcache-") for t in threading.enumerate()),
            timeout=5.0)
        base = threading.active_count()
        rt = runtime(enabled=enabled)
        go = threading.Event()
        handles = []
        for n in range(1, 5):
            handles.append(rt.spawn(go.wait, 5.0))
            assert threading.active_count() == base + n
            assert len(threading.enumerate()) == base + n
        idents = {h.worker.ident for h in handles}
        assert idents <= {t.ident for t in threading.enumerate()}
        assert all(w in threading.enumerate() for w in rt._live.values())
        go.set()
        assert all(h.join() for h in handles)
        if enabled:
            assert wait_until(lambda: rt.stats().current_idle == 4)
            assert threading.active_count() == base + 4
            assert idents <= {t.ident for t in threading.enumerate()}
        rt.shutdown(join=True, timeout=10.0)
        if not enabled:  # they exited on their own, not through shutdown
            assert wait_until(lambda: threading.active_count() == base)
        assert threading.active_count() == base
        assert not idents & {t.ident for t in threading.enumerate()}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_settrace_and_setprofile_reach_the_task(self, runtime, enabled):
        seen = []

        def traced():
            return 1

        def hook(frame, event, arg):
            if frame.f_code is traced.__code__:
                seen.append(event)

        rt = runtime(enabled=enabled)
        threading.settrace(hook)
        threading.setprofile(hook)
        try:
            assert rt.spawn(traced).join() == 1
        finally:
            threading.settrace(None)
            threading.setprofile(None)
        rt.shutdown(join=True, timeout=5.0)  # the hooks last as the worker
        assert sorted(seen) == ["call", "call", "return"]

    def test_record_joins_like_a_started_daemon_thread(self, runtime):
        rt = runtime(enabled=True)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        record, = [t for t in threading.enumerate()
                   if t.name.startswith("threadcache-worker-")]
        # as code that joins every thread in enumerate() with a timeout does
        t0 = time.monotonic()
        record.join(0.05)
        assert time.monotonic() - t0 >= 0.04 and record.is_alive()
        record.join(-1)  # a negative timeout polls
        with pytest.raises(RuntimeError):
            record.daemon = False
        with pytest.raises(RuntimeError):
            record.start()

        def join_self():
            with pytest.raises(RuntimeError):
                threading.current_thread().join(0.01)

        rt.spawn(join_self).join()
        rt.shutdown(join=False)
        record.join(5.0)
        assert not record.is_alive()
        assert record not in threading.enumerate()

    def test_worker_exits_after_its_entry_was_deleted(self, runtime):
        # as test_ident_of_no_threading_threads does: the worker must still
        # leave threading and release its stop lock when it exits
        rt = runtime(enabled=True)

        def drop_entry():
            with threading._active_limbo_lock:
                threading._active.pop(threading.get_ident())

        h = rt.spawn(drop_entry)
        h.join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        t0 = time.monotonic()
        rt.shutdown(join=True, timeout=2.0)
        assert time.monotonic() - t0 < 0.5
        assert not h.worker.is_alive()
        assert rt.stats().physical_culls == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_shutdown_in_a_forked_child_does_not_wait_for_absent_workers(
            self, runtime):
        rt = runtime(enabled=True)
        idle_workers(rt, 2)
        pid = os.fork()
        if pid == 0:  # the workers' threads did not survive the fork
            code = 1
            try:
                t0 = time.monotonic()
                rt.shutdown(join=True, timeout=3.0)
                code = 0 if time.monotonic() - t0 < 1.0 else 1
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_from_a_task(self, runtime):
        rt = runtime(enabled=True)
        for _ in range(2):  # a cold worker, then the same one recycled
            assert rt.spawn(forked_child_exit_code).join() == 0
            assert wait_until(lambda: quiescent(rt))
        assert rt.stats().physical_creates == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_from_main_while_workers_idle(self, runtime):
        rt = runtime(enabled=True)
        idle_workers(rt, 3)
        assert forked_child_exit_code() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    """A forked child keeps only the forking thread; the runtime follows."""

    def test_child_forked_from_a_task_exits_when_the_task_returns(
            self, runtime):
        # under a reaping policy, too: no worker parks as a timer in this
        # child
        rt = runtime(enabled=True,
                     retention=RetentionConfig(policy=Policy.AGE_OUT))
        idle_workers(rt, 3)

        def fork():
            pid = os.fork()
            if pid == 0:  # only this worker is left, and it is running
                s = rt.stats()
                if not (s.physical_creates - s.physical_culls
                        == len(rt._live) == 1 and s.current_idle == 0
                        and not rt.enabled):
                    os._exit(1)
            return pid  # the child's only thread exits, as a Thread's would

        assert reap_child(rt.spawn(fork).join()) == 0

    def test_child_forked_from_a_task_that_spawns_exits(self, runtime):
        # the child runs uncached, so the worker it spawns does not park
        rt = runtime(enabled=True)

        def fork():
            pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    ok = rt.spawn(lambda: 42).join() == 42
                finally:
                    if not ok:
                        os._exit(1)
            return pid

        assert reap_child(rt.spawn(fork).join()) == 0

    def test_handle_of_a_task_stranded_by_fork_completes_poisoned(
            self, runtime):
        rt = runtime(enabled=True)
        go = threading.Event()
        h = rt.spawn(go.wait, 5.0)
        pid = os.fork()
        if pid == 0:  # h's worker did not fork: its task never finishes
            code = 1
            try:
                t0 = time.monotonic()
                if (h.wait(1.0) and h.wait(0)
                        and time.monotonic() - t0 < 0.5):
                    try:
                        h.join()
                    except TaskPoisoned as exc:
                        if "fork()" in str(exc.__cause__):
                            code = 0
            finally:
                os._exit(code)
        go.set()
        assert h.join() is True
        assert reap_child(pid) == 0

    def test_spawn_in_a_child_forked_with_idle_workers(self, runtime):
        rt = runtime(enabled=True)
        idle_workers(rt, 3)
        records = [t for t in threading.enumerate()
                   if t.name.startswith("threadcache-worker-")]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                t0 = time.monotonic()
                for r in records:  # stopped: their threads did not fork
                    r.join(2.0)
                if time.monotonic() - t0 < 1.0 and quiescent(rt):
                    h = rt.spawn(lambda: 42)
                    if (h.wait(2.0) and h.join() == 42
                            and wait_until(lambda: quiescent(rt))):
                        code = 0
            finally:
                os._exit(code)
        assert reap_child(pid) == 0

    def test_child_forked_from_main_keeps_cache_hits_and_peak(self, runtime):
        rt = runtime(enabled=True)
        idle_workers(rt, 3)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: quiescent(rt))
        before = rt.stats()
        pid = os.fork()
        if pid == 0:  # the same store, emptied: its counts carry on
            code = 1
            try:
                s = rt.stats()
                if (rt.enabled and s.current_idle == 0
                        and (s.cache_hits, s.peak_idle)
                        == (before.cache_hits, before.peak_idle) == (1, 3)):
                    rt.spawn(lambda: None).join()  # a create, which parks
                    if wait_until(lambda: rt.stats().current_idle == 1):
                        rt.spawn(lambda: None).join()  # and a hit
                        if rt.stats().cache_hits == 2:
                            code = 0
            finally:
                os._exit(code)
        assert reap_child(pid) == 0

    def test_reaper_ages_out_idle_workers_in_a_child(self, runtime):
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=0.05,
                              reap_period=0.02)
        rt = runtime(enabled=True, retention=cfg)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                rt.spawn(lambda: None).join()
                if wait_until(lambda: rt.stats().physical_culls == 1
                              and quiescent(rt), timeout=3.0):
                    code = 0
            finally:
                os._exit(code)
        assert reap_child(pid) == 0

    def test_fork_hook_starts_no_thread(self, runtime):
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=60.0)
        rt = runtime(enabled=True, retention=cfg)
        idle_workers(rt, 2)
        timer = rt._store.timer  # parked with a timeout: it runs the passes
        assert timer is not None and timer.is_alive()
        pid = os.fork()
        if pid == 0:  # the forking thread alone, until the first create
            os._exit(0 if len(sys._current_frames()) == 1 else 1)
        assert reap_child(pid) == 0


class TestFailureModes:
    def test_poisoned_task_recycles_worker(self, runtime):
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1 // 0)
        with pytest.raises(TaskPoisoned) as exc:
            h.join()
        assert isinstance(exc.value.__cause__, ZeroDivisionError)
        assert wait_until(lambda: rt.stats().current_idle == 1)
        # physical_creates stays the faithful kernel-creation measure
        assert rt.spawn(lambda: "ok").join() == "ok"
        assert rt.stats().physical_creates == 1

    def test_spawn_error_surfaces_and_counts_spawn_only(self, runtime,
                                                       monkeypatch):
        rt = runtime(enabled=True)

        def failing_start(function, args):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr("threadcache.runtime._start_new_thread",
                            failing_start)
        with pytest.raises(SpawnError):
            rt.spawn(lambda: None)
        s = rt.stats()
        assert s.spawns_total == 1
        assert (s.cache_hits, s.physical_creates, s.physical_culls) == (0, 0, 0)
        assert rt._live == {}  # a failed start leaves no registration
        monkeypatch.undo()
        h = rt.spawn(lambda: None)
        h.join()
        assert h.worker.worker_id == 2  # ids never repeat after a failed start
        s = rt.stats()
        assert (s.spawns_total, s.physical_creates) == (2, 1)
        assert rt._live == {2: h.worker}


class TestRecyclingInvariants:
    def test_worker_id_reuse_bounded_in_serial_loop(self, runtime):
        rt = runtime(enabled=True)
        ids = set()
        for _ in range(50):
            h = rt.spawn(lambda: None)
            h.join()
            ids.add(h.worker.worker_id)
        assert len(ids) <= 2

    def test_latch_fires_before_worker_is_reusable(self, runtime):
        rt = runtime(enabled=True)
        for _ in range(200):
            h1 = rt.spawn(lambda: None)
            observed = []

            def check(h=h1):
                observed.append(h.wait(0))

            h2 = rt.spawn(check)
            h2.join()
            if h2.worker is h1.worker:
                # reused worker implies the previous latch had fired
                assert observed == [True]
            h1.join()

    def test_terminated_worker_never_serves_again(self, runtime):
        rt = runtime(enabled=True)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        victims = rt._store.cull_oldest(1)
        assert len(victims) == 1
        rt._terminate(victims)
        assert wait_until(lambda: rt.stats().physical_culls == 1)
        assert victims[0].worker_id not in rt._live
        h = rt.spawn(lambda: None)
        h.join()
        assert h.worker is not victims[0]
        assert rt.stats().physical_creates == 2

    def test_conservation_under_concurrency(self, runtime):
        rt = runtime(enabled=True)
        n_threads, per = 8, 200

        def hammer():
            for _ in range(per):
                rt.spawn(lambda: None).join()

        ts = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        s = rt.stats()
        assert s.spawns_total == n_threads * per
        assert s.spawns_total == s.cache_hits + s.physical_creates


class TestTinySwitchInterval:
    def test_counters_exact_under_concurrent_churn(self, runtime):
        # time-bounded; hits are counted on the workers that served them,
        # misses by the runtime, and their sum must be every spawn made
        rt = runtime(enabled=True)
        made = [0] * 8
        stop = threading.Event()

        def creator(i):
            while not stop.is_set():
                rt.spawn(lambda: None).join()
                made[i] += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ts = [threading.Thread(target=creator, args=(i,))
                  for i in range(len(made))]
            for t in ts:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in ts:
                t.join(10.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in ts)
        s = rt.stats()
        assert s.spawns_total == sum(made) > 0
        assert s.spawns_total == s.cache_hits + s.physical_creates
        assert s.cache_hits == sum(w.hits for w in rt._live.values())
        # every worker ends up idle exactly once: no loss, no duplicate
        assert wait_until(lambda: rt.stats().current_idle
                          == rt.stats().physical_creates)
        idle = rt._store._items[::-1]
        assert len({id(w) for w in idle}) == len(idle)
        assert len({w.worker_id for w in idle}) == len(idle)
        assert rt.stats().physical_culls == 0  # Unbounded: no worker exits
        assert rt.stats().peak_idle <= s.physical_creates

    def test_timer_passes_under_concurrent_churn(self, runtime,
                                                 monkeypatch):
        # a budget so small that every pass culls: timers are claimed,
        # popped, culled and replaced while 8 creators churn; passes never
        # overlap, and every exit is a cull that one pass returned
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=0.0005,
                              reap_period=0.001)
        rt = runtime(enabled=True, retention=cfg)
        seen = counted_reap(monkeypatch, rt._store)
        made = [0] * 8
        stop = threading.Event()

        def creator(i):
            while not stop.is_set():
                rt.spawn(lambda: None).join()
                made[i] += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ts = [threading.Thread(target=creator, args=(i,))
                  for i in range(len(made))]
            for t in ts:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in ts:
                t.join(10.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in ts)
        # idle workers age out until none is left, the timer last
        assert wait_until(lambda: rt._live == {}, timeout=5.0)
        s = rt.stats()
        assert s.spawns_total == sum(made) > 0
        assert s.spawns_total == s.cache_hits + s.physical_creates
        assert s.current_idle == 0 and rt._store.timer is None
        assert seen["culled"] == s.physical_culls == s.physical_creates > 1
        assert seen["most"] == 1


class TestDetachedFailure:
    """A detached task that raises is handed to sys.unraisablehook once, as
    a raw ``_thread`` start's is, whether it ends before or after the
    detach; a joined one raises TaskPoisoned instead."""

    @staticmethod
    def hooked(monkeypatch):
        # pytest turns an unraisable exception into an error: our own hook
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        return seen

    def test_reported_once_whether_detached_before_or_after_the_end(
            self, runtime, monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        go = threading.Event()

        def late():
            go.wait(5.0)
            raise ValueError("late")

        def early():
            raise KeyError("early")

        h = rt.spawn(late)
        h.detach()  # before the end: the worker reports
        go.set()
        assert wait_until(lambda: len(seen) == 1)
        h = rt.spawn(early)
        assert h.wait(5.0)
        assert wait_until(lambda: quiescent(rt))
        assert len(seen) == 1
        h.detach()  # after the end: detach reports
        assert len(seen) == 2
        assert [(type(u.exc_value), u.object, u.err_msg) for u in seen] == [
            (ValueError, late, "Exception ignored in thread started by"),
            (KeyError, early, "Exception ignored in thread started by")]
        assert all(u.exc_traceback is not None for u in seen)
        with pytest.raises(TaskPoisoned):  # joined: not reported
            rt.spawn(early).join()
        assert wait_until(lambda: quiescent(rt)) and len(seen) == 2

    def test_detach_racing_the_end_reports_each_once(self, runtime,
                                                     monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        n = 300
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(n):
                rt.spawn(lambda: 1 / 0).detach()
        finally:
            sys.setswitchinterval(old)
        assert wait_until(lambda: len(seen) >= n and quiescent(rt))
        time.sleep(0.05)
        assert len(seen) == n
        assert {type(u.exc_value) for u in seen} == {ZeroDivisionError}

    @pytest.mark.parametrize("raised", [RuntimeError, SystemExit,
                                        KeyboardInterrupt])
    def test_a_worker_outlives_a_failing_hook(self, runtime, monkeypatch,
                                              raised):
        # CPython hands any failure of the hook to the default hook
        def broken(u):
            raise raised("hook failed")

        monkeypatch.setattr(sys, "unraisablehook", broken)
        defaults = []
        monkeypatch.setattr(sys, "__unraisablehook__", defaults.append)
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1 / 0)
        h.detach()  # before the end: the worker reports
        assert wait_until(lambda: len(defaults) == 1 and quiescent(rt))
        assert rt.spawn(lambda: 4).join() == 4
        h = rt.spawn(lambda: 1 / 0)
        assert h.wait(5.0) and wait_until(lambda: quiescent(rt))
        h.detach()  # after the end: detach reports, and does not raise
        assert len(defaults) == 2
        s = rt.stats()
        assert (s.cache_hits, s.physical_creates, len(rt._live)) == (2, 1, 1)
        rt.shutdown(join=True, timeout=5.0)
        assert not h.worker.is_alive()

    def test_a_poisoned_handle_lets_go_of_its_entry(self, runtime,
                                                   monkeypatch):
        # once reported or joined, a raised task's entry is not kept; a C
        # entry, so that no frame of it in the traceback keeps it either
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        for end in ("join", "detach"):
            entry = functools.partial(int, "not a number")
            ref = weakref.ref(entry)
            h = rt.spawn(entry)
            del entry
            assert h.wait(5.0) and wait_until(lambda: quiescent(rt))
            if end == "join":
                with pytest.raises(TaskPoisoned):
                    h.join()
            else:
                h.detach()
                assert seen.pop().object.func is int  # the hook had it
            gc.collect()
            assert ref() is None, end


_KEPT_UNTIL_EXIT_SCRIPT = """
import threadcache

def boom():
    raise ValueError("kept until exit")

rt = threadcache.ThreadCache()
h = rt.spawn(boom)  # a global, never joined: freed as the interpreter ends
assert h.wait(5.0)
"""


class TestUnjoinedFailure:
    """A task that raised and is never joined is reported once, when its
    handle can no longer be joined: detached (``TestDetachedFailure``), let
    go of, or collected in a cycle. The value reports itself as it is
    freed; a joined one never does."""

    hooked = staticmethod(TestDetachedFailure.hooked)

    def test_a_dropped_handle_reports_once_with_its_entry(self, runtime,
                                                          monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)

        def boom():
            raise KeyError("dropped")

        rt.spawn(boom)
        assert wait_until(lambda: len(seen) == 1 and quiescent(rt))
        time.sleep(0.02)
        assert [(type(u.exc_value), u.object, u.err_msg) for u in seen] == [
            (KeyError, boom, "Exception ignored in thread started by")]

    def test_a_handle_waited_on_then_dropped_reports_once(self, runtime,
                                                          monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1 / 0)
        assert h.wait(5.0) and wait_until(lambda: quiescent(rt))
        assert seen == []  # still joinable
        del h
        assert len(seen) == 1 and type(seen[0].exc_value) is ZeroDivisionError

    def test_a_joined_handle_is_never_reported(self, runtime, monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        h = rt.spawn(lambda: 1 / 0)
        with pytest.raises(TaskPoisoned):
            h.join()
        del h
        gc.collect()
        assert wait_until(lambda: quiescent(rt)) and seen == []

    def test_a_failure_in_a_cycle_is_reported_at_collection(self, runtime,
                                                            monkeypatch):
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)

        def cyclic():  # exception -> handle -> value -> exception
            raise ValueError(current_task())

        gc.disable()
        try:
            h = rt.spawn(cyclic)
            assert h.wait(5.0) and wait_until(lambda: quiescent(rt))
            del h
            assert seen == []  # only the collector can free the cycle
            gc.collect()
        finally:
            gc.enable()
        assert len(seen) == 1 and type(seen[0].exc_value) is ValueError
        assert seen[0].object is cyclic

    def test_a_failure_kept_until_exit_is_reported_once(self):
        proc = run_script(_KEPT_UNTIL_EXIT_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        # through the default hook, and the finalizer itself never fails
        assert proc.stderr.count(
            "Exception ignored in thread started by: <function boom") == 1
        assert proc.stderr.count("ValueError: kept until exit") == 1
        assert "Exception ignored in:" not in proc.stderr
        assert "__del__" not in proc.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_handle_stranded_by_fork_is_never_reported(self, runtime,
                                                         monkeypatch):
        # the task did not fail in the child, its thread was not copied:
        # no report, not in the at-fork hook, which frees the detached
        # handle's last reference, nor at a detach or a drop in the child
        seen = self.hooked(monkeypatch)
        rt = runtime(enabled=True)
        go = threading.Event()
        joined, detached = rt.spawn(go.wait, 5.0), rt.spawn(go.wait, 5.0)
        rt.spawn(go.wait, 5.0).detach()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if (seen == [] and joined._value.entry is None
                        and detached._value.entry is None):
                    detached.detach()
                    del detached
                    try:
                        joined.join()
                    except TaskPoisoned:
                        del joined
                        gc.collect()
                        if seen == []:
                            code = 0
            finally:
                os._exit(code)
        go.set()
        assert joined.join() is True and detached.join() is True
        assert reap_child(pid) == 0
        assert wait_until(lambda: quiescent(rt)) and seen == []

    def test_detach_at_every_boundary_of_the_end_reports_once(
            self, runtime, monkeypatch):
        """The worker's end of a raised task against ``detach()``, run on
        the worker at each line or opcode boundary of its dispatch loop,
        where a thread switch may fall under the GIL, from the exception's
        arrival through the drop of the value: exactly one report each time,
        while the handle is still held, so neither a report lost nor one
        made twice."""
        seen = self.hooked(monkeypatch)
        run = {}

        def boom():
            raise KeyError("raced")

        def steps(frame, event, arg):  # the dispatch loop's frame
            h = run["handle"]
            if event == "exception":  # the task's raise arrives
                run["open"] = True
            elif h._entry is None:  # past the drop: stop tracing
                frame.f_trace = None
                return None
            if run["open"]:
                if run["count"] == run["at"]:
                    run["fired"] = True
                    h.detach()  # a trace call: its frames are not traced
                run["count"] += 1
            return steps

        def calls(frame, event, arg):  # the worker's trace, for life
            if frame.f_code is boom.__code__:
                loop = frame.f_back
                assert loop.f_code is ThreadCache._dispatch_loop.__code__
                run["handle"] = current_task()
                loop.f_trace = steps
                loop.f_trace_opcodes = True
            return None

        rt = runtime(enabled=True)
        threading.settrace(calls)  # the one worker starts under it
        try:
            rt.spawn(lambda: None).join()
        finally:
            threading.settrace(None)
        assert wait_until(lambda: quiescent(rt))
        at = 0
        while True:
            run.update(at=at, count=0, fired=False, open=False)
            h = rt.spawn(boom)
            assert h.wait(5.0) and wait_until(lambda: quiescent(rt))
            if not run["fired"]:
                h.detach()  # after the end
            assert len(seen) == 1, (at, len(seen))
            u = seen.pop()
            assert (type(u.exc_value), u.object) == (KeyError, boom)
            del h, u
            run.pop("handle")
            assert seen == []
            if not run["fired"]:
                break
            at += 1
        assert at > 10, at  # the window was stepped through
        assert rt.stats().physical_creates == 1


class TestShutdown:
    def test_no_worker_left_parked_after_racing_shutdown(self):
        # 64 tasks finish together while shutdown drains the store; a
        # worker that pushes after the drain must exit, not park
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                rt = ThreadCache(enabled=True)
                go = threading.Event()
                handles = [rt.spawn(go.wait, 5.0) for _ in range(64)]
                go.set()
                rt.shutdown(join=True, timeout=10.0)
                assert all(h.wait(5.0) for h in handles)
                assert rt.stats().current_idle == 0
                assert rt._live == {}
        finally:
            sys.setswitchinterval(old)

    def test_drained_workers_are_not_cache_hits(self, runtime):
        rt = runtime(enabled=True)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        rt.shutdown(join=True, timeout=5.0)
        s = rt.stats()
        assert (s.spawns_total, s.cache_hits, s.current_idle) == (1, 0, 0)
        assert s.physical_culls == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_spawn_after_shutdown_raises(self, runtime, enabled):
        rt = runtime(enabled=enabled)
        assert rt.spawn(lambda: 3).join() == 3
        assert not rt.closed
        rt.shutdown(join=True, timeout=5.0)
        assert rt.closed
        before = rt.stats()
        with pytest.raises(UsageError):
            rt.spawn(lambda: 3)
        assert rt.stats() == before
        assert rt._live == {}

    def test_join_waits_for_every_worker(self, runtime):
        rt = runtime(enabled=True)
        go = threading.Event()
        handles = [rt.spawn(go.wait, 5.0) for _ in range(8)]
        idle = rt.spawn(lambda: None)
        idle.join()
        idents = {h.worker.ident for h in handles + [idle]}
        go.set()
        rt.shutdown(join=True, timeout=10.0)
        assert all(h.wait(5.0) for h in handles)
        assert not idents & {t.ident for t in threading.enumerate()}
        assert rt._live == {}
        assert rt.stats().physical_culls == rt.stats().physical_creates

    def test_join_waits_for_a_worker_still_starting(self, runtime,
                                                    monkeypatch):
        # spawn registers a worker before its thread starts; a shutdown in
        # that window must wait for the worker, not fail to join it
        starting = threading.Event()
        real_start = threadcache.runtime._start_new_thread

        def slow_start(function, args):
            starting.set()
            time.sleep(0.2)
            return real_start(function, args)

        monkeypatch.setattr("threadcache.runtime._start_new_thread",
                            slow_start)
        rt = runtime(enabled=True)
        errors = []

        def stop():
            assert starting.wait(5.0)
            try:
                rt.shutdown(join=True, timeout=10.0)
            except BaseException as exc:
                errors.append(exc)

        t = threading.Thread(target=stop)
        t.start()
        h = rt.spawn(lambda: 7)
        t.join(10.0)
        assert not t.is_alive()
        assert errors == []
        assert rt._live == {}
        assert h.join() == 7
        assert rt.stats().physical_culls == rt.stats().physical_creates == 1

    def test_shutdown_from_inside_a_task(self, runtime):
        rt = runtime(enabled=True)
        go = threading.Event()
        others = [rt.spawn(go.wait, 5.0) for _ in range(4)]

        def stop():
            go.set()
            rt.shutdown(join=True, timeout=10.0)
            return list(rt._live)  # every other worker has exited

        h = rt.spawn(stop)
        assert h.join() == [h.worker.worker_id]
        assert all(o.wait(5.0) for o in others)
        assert wait_until(lambda: rt._live == {})
        assert rt.stats().physical_culls == rt.stats().physical_creates


class TestNoRetention:
    def test_idle_worker_keeps_no_task_value_or_arg(self, runtime):
        class Box:
            pass

        rt = runtime(enabled=True)
        for _ in range(2):  # a cold worker, then the same worker recycled
            arg = Box()
            h = rt.spawn(lambda a: Box(), arg)
            value = h.join()
            refs = weakref.ref(value), weakref.ref(arg)
            del h, value, arg
            assert wait_until(lambda: rt.stats().current_idle == 1)
            gc.collect()
            assert [r() for r in refs] == [None, None]
        assert rt.stats().physical_creates == 1

    def test_joined_handle_keeps_no_entry_or_arg(self, runtime):
        # as Thread.run drops its target: a handle the caller still holds
        # pins neither the callable nor its argument once the task ran
        class Box:
            pass

        rt = runtime(enabled=True)
        arg = Box()
        ref = weakref.ref(arg)
        h = rt.spawn(lambda a: None, arg)
        del arg
        h.join()
        assert (h._entry, h._arg) == (None, None)
        assert ref() is None

    def test_uncached_spawns_leave_nothing_behind(self, runtime):
        rt = runtime(enabled=False)

        def all_exited():
            s = rt.stats()
            return s.physical_culls == s.physical_creates

        grown = net_new_objects(lambda: rt.spawn(lambda: None).join(), 2000,
                                all_exited)
        assert grown < 100, f"{grown} objects retained by 2000 spawns"
        assert rt.stats().physical_creates == 2020


class TestDisabledMode:
    def test_env_gate_disables_cache(self, runtime, monkeypatch):
        monkeypatch.setenv("THREADCACHE", "0")
        rt = runtime()
        assert not rt.enabled
        rt.spawn(lambda: None).join()
        rt.spawn(lambda: None).join()
        s = rt.stats()
        assert s.cache_hits == 0
        assert s.physical_creates == 2
        assert s.current_idle == 0
        assert wait_until(lambda: rt.stats().physical_culls == 2)

    def test_env_gate_enables_by_default(self, runtime, monkeypatch):
        monkeypatch.delenv("THREADCACHE", raising=False)
        assert runtime().enabled

    def test_shut_down_or_clamped_to_zero_reads_disabled(self, runtime):
        # enabled reads the store: closed by shutdown, or born closed
        rt = runtime(enabled=True)
        rt.shutdown()
        assert not rt.enabled
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=0)
        assert not runtime(enabled=True, retention=cfg).enabled


class TestRetentionIntegration:
    def test_clamp_policy_bounds_idle_depth(self, runtime):
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=2)
        rt = runtime(enabled=True, retention=cfg)
        gates = [threading.Event() for _ in range(5)]
        handles = [rt.spawn(g.wait) for g in gates]
        for g in gates:
            g.set()
        for h in handles:
            h.join()
        assert wait_until(lambda: rt.stats().current_idle <= 2
                          and rt.stats().physical_culls >= 3)
        assert rt.stats().current_idle <= 2

    def test_clamp_zero_disables_caching(self, runtime):
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=0)
        rt = runtime(enabled=True, retention=cfg)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().physical_culls == 1)
        rt.spawn(lambda: None).join()
        assert rt.stats().cache_hits == 0

    def test_reaper_ages_out_idle_workers(self, runtime):
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=0.05,
                              reap_period=0.02)
        rt = runtime(enabled=True, retention=cfg)
        rt.spawn(lambda: None).join()
        assert wait_until(lambda: rt.stats().current_idle == 1)
        assert wait_until(lambda: rt.stats().physical_culls == 1,
                          timeout=3.0)
        assert rt.stats().current_idle == 0 and quiescent(rt)

    def test_clamp_exact_under_concurrent_exits(self):
        # 16 tasks finish together; the clamp holds at every instant
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=2)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                rt = ThreadCache(enabled=True, retention=cfg)
                try:
                    go = threading.Event()
                    handles = [rt.spawn(go.wait, 5.0) for _ in range(16)]
                    go.set()
                    assert all(h.join() for h in handles)
                    assert wait_until(lambda: quiescent(rt))
                    s = rt.stats()
                    assert s.peak_idle <= 2
                    assert s.current_idle <= 2
                finally:
                    rt.shutdown(join=True)
        finally:
            sys.setswitchinterval(old)


_THREAD_COUNT_SCRIPT = """
import json, os, threading, time
from threadcache import Policy, RetentionConfig, ThreadCache

def counts():
    return len(os.listdir("/proc/self/task")), threading.active_count()

start = counts()
for policy in (Policy.AGE_OUT, Policy.INTEGRAL_BUDGET):
    while counts() != start:  # the last runtime's threads are still ending
        time.sleep(0.001)
    before = counts()
    rt = ThreadCache(enabled=True,
                     retention=RetentionConfig(policy=policy, reap_period=0.01))
    built = counts()
    go = threading.Event()
    handles = [rt.spawn(go.wait, 5.0) for _ in range(3)]
    go.set()
    assert all(h.join() for h in handles)
    while rt.stats().current_idle < 3:
        time.sleep(0.001)
    time.sleep(0.05)  # five periods: a thread started by a pass would show
    print(json.dumps([policy.name, before, built, counts()]))
    rt.shutdown(join=True)
"""


class TestRetentionTimer:
    """Retention passes run on the store's timer, not on a thread of their
    own: a reaping runtime starts no thread and passes only while a worker
    is idle."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task")
    def test_reaping_runtime_starts_no_thread(self):
        # in a fresh process, where no other test's thread comes or goes
        proc = run_script(_THREAD_COUNT_SCRIPT)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        for line in lines:
            policy, before, built, idle = json.loads(line)
            # OS threads and threading's count: none added by the
            # constructor, and one per idle worker
            assert built == before, policy
            assert idle == [before[0] + 3, before[1] + 3], policy

    def test_idle_runtime_makes_no_pass(self, runtime, monkeypatch):
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET,
                              reap_period=0.01)
        rt = runtime(enabled=True, retention=cfg)
        passes = counted_reap(monkeypatch, rt._store)["passes"]
        time.sleep(0.1)  # no worker at all
        go = threading.Event()
        h = rt.spawn(go.wait, 5.0)
        time.sleep(0.1)  # one worker, running
        assert passes == []
        go.set()
        assert h.join()
        assert wait_until(lambda: passes)  # it parks and times the passes

    def test_one_pass_per_period_while_workers_idle(self, runtime,
                                                    monkeypatch):
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET,
                              reap_period=0.01)
        rt = runtime(enabled=True, retention=cfg)
        idle_workers(rt, 3)
        passes = counted_reap(monkeypatch, rt._store)["passes"]
        time.sleep(0.3)
        n = len(passes)
        assert 10 <= n <= 32, n  # 30 due; a loaded host may delay some
        gaps = [b - a for a, b in zip(passes, passes[1:])]
        assert min(gaps) > 0.005e9, gaps  # never two in one period
        assert rt.stats().current_idle == 3

    def test_first_pass_comes_one_period_after_the_timer_parks(
            self, runtime, monkeypatch):
        # a runtime quiet for longer than a period owes no pass: its first
        # timer culls nothing at once, and culls itself at its first pass
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=0.05,
                              reap_period=0.2)
        rt = runtime(enabled=True, retention=cfg)
        seen = counted_reap(monkeypatch, rt._store)
        time.sleep(0.3)
        t0 = time.monotonic_ns()
        rt.spawn(lambda: None).join()
        time.sleep(0.1)
        assert [t for t in seen["passes"] if t < t0 + 0.1e9] == []
        assert wait_until(lambda: rt.stats().physical_culls == 1,
                          timeout=0.3)
        assert seen["culled"] == 1


# ---------------------------------------------------------------------------
# N-1 retention bound over randomized schedules (scaled; full in acceptance)

def run_idle_bound_schedule(rng, max_live=16, steps=40):
    rt = ThreadCache(enabled=True)
    try:
        live = {}
        peak_live = 1  # the orchestrating thread counts as live
        serial = 0
        violations = []

        def sample():
            idle = rt.stats().current_idle
            if idle > peak_live - 1:
                violations.append((idle, peak_live))

        for _ in range(steps):
            if live and (len(live) >= max_live or rng.random() < 0.45):
                key = rng.choice(list(live))
                gate, handle = live.pop(key)
                gate.set()
                handle.join()
            else:
                gate = threading.Event()
                live[serial] = (gate, rt.spawn(gate.wait))
                serial += 1
                peak_live = max(peak_live, len(live) + 1)
            sample()
            if not live:
                assert wait_until(lambda: quiescent(rt))
        for gate, handle in live.values():
            gate.set()
            handle.join()
        assert wait_until(lambda: quiescent(rt))
        sample()
        s = rt.stats()
        assert s.spawns_total == s.cache_hits + s.physical_creates
        assert not violations, violations
        assert s.current_idle <= peak_live - 1
    finally:
        rt.shutdown(join=False)


def test_unbounded_idle_depth_never_exceeds_n_minus_1():
    rng = random.Random(42)
    for _ in range(60):
        run_idle_bound_schedule(rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_idle_bound_hypothesis(seed):
    run_idle_bound_schedule(random.Random(seed), max_live=8, steps=24)
