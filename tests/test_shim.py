"""Interposition shim: conformance against the unpatched stdlib API.

Every corpus entry is a small self-contained program using the public
thread API; its observable record must be identical whether or not the
shim is installed. The one deliberate divergence (thread-local storage
surviving a recycle) is pinned by its own test.
"""

import _thread
import _threading_local
import contextvars
import decimal
import gc
import io
import logging
import os
import re
import subprocess
import sys
import threading
import time
import weakref

import pytest

import threadcache.shim as shim
from threadcache import (Policy, RetentionConfig, ThreadCache, UsageError,
                         current_task, logical_exit)

from conftest import net_new_objects, one_cpu, reap_child, wait_until


@pytest.fixture
def shimmed():
    rt = ThreadCache(enabled=True)
    shim.install(rt)
    yield rt
    shim.uninstall()
    rt.shutdown(join=False)


@pytest.fixture(autouse=True)
def always_uninstalled():
    yield
    if shim.installed():
        shim.uninstall()


# ---------------------------------------------------------------------------
# conformance corpus

def corpus_create_join_roundtrip():
    out = []
    t = threading.Thread(target=lambda: out.append(41 + 1))
    t.start()
    t.join()
    return ("roundtrip", tuple(out), t.is_alive())


def corpus_return_value_is_discarded():
    t = threading.Thread(target=lambda: 42)
    t.start()
    return ("join-returns", t.join())


def corpus_args_kwargs():
    out = []
    t = threading.Thread(target=lambda a, b=0: out.append(a + b),
                         args=(40,), kwargs={"b": 2})
    t.start()
    t.join()
    return ("args", tuple(out))


def corpus_many_threads():
    out = []
    lock = threading.Lock()

    def work(i):
        with lock:
            out.append(i * i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(30)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return ("many", tuple(sorted(out)))


def corpus_exception_reaches_excepthook():
    seen = []
    old = threading.excepthook
    threading.excepthook = lambda args: seen.append(
        (args.exc_type.__name__, args.thread.name))
    try:
        t = threading.Thread(target=lambda: (_ for _ in ()).throw(
            ValueError("boom")), name="boomer")
        t.start()
        t.join()
    finally:
        threading.excepthook = old
    return ("excepthook", tuple(seen))


def corpus_join_timeout_then_completion():
    gate = threading.Event()
    t = threading.Thread(target=gate.wait)
    t.start()
    t.join(0.05)
    alive_mid = t.is_alive()
    gate.set()
    t.join()
    return ("timeout", alive_mid, t.is_alive())


def corpus_negative_join_timeout_polls():
    gate = threading.Event()
    t = threading.Thread(target=gate.wait, args=(5.0,))
    t.start()
    t.join(-0.5)
    t.join(-1)
    alive_mid = t.is_alive()
    gate.set()
    t.join()
    return ("negative-timeout", alive_mid, t.is_alive())


def corpus_double_join_is_idempotent():
    t = threading.Thread(target=lambda: None)
    t.start()
    t.join()
    t.join()
    return ("double-join", "ok")


def corpus_join_before_start_errors():
    t = threading.Thread(target=lambda: None)
    try:
        t.join()
        return ("join-before-start", None)
    except RuntimeError as exc:
        return ("join-before-start", str(exc))


def corpus_start_twice_errors():
    t = threading.Thread(target=lambda: None)
    t.start()
    t.join()
    try:
        t.start()
        return ("start-twice", None)
    except RuntimeError as exc:
        return ("start-twice", str(exc))


def corpus_self_join_errors():
    box = {}
    ready = threading.Event()

    def entry():
        ready.wait(2.0)
        try:
            box["t"].join()
            box["err"] = None
        except RuntimeError as exc:
            box["err"] = str(exc)

    box["t"] = t = threading.Thread(target=entry)
    t.start()
    ready.set()
    t.join()
    return ("self-join", box["err"])


def corpus_run_override_honored():
    out = []

    class MyThread(threading.Thread):
        def run(self):
            out.append("override")

    t = MyThread()
    t.start()
    t.join()
    return ("override", tuple(out))


def corpus_name_and_ident():
    t = threading.Thread(target=lambda: None, name="named-thread")
    t.start()
    t.join()
    return ("name", t.name, isinstance(t.ident, int), t.is_alive())


def corpus_detached_fire_and_forget():
    out = []
    done = threading.Event()

    def work(x):
        out.append(x)
        done.set()

    ident = _thread.start_new_thread(work, (123,))
    done.wait(2.0)
    return ("detached", tuple(out), isinstance(ident, int))


def corpus_thread_exit_stops_body():
    out = []

    def entry():
        out.append("before")
        _thread.exit()
        out.append("after")  # never reached

    old = threading.excepthook
    threading.excepthook = lambda args: None  # SystemExit is expected here
    try:
        t = threading.Thread(target=entry)
        t.start()
        t.join()
    finally:
        threading.excepthook = old
    return ("exit", tuple(out))


def corpus_logical_exit_ends_thread_quietly():
    out, hooked = [], []

    def entry():
        out.append("before")
        logical_exit(7)
        out.append("after")  # never reached

    # Thread hands the SystemExit to excepthook, whose default ignores it
    old = threading.excepthook
    threading.excepthook = lambda args: hooked.append(
        (args.exc_type.__name__, getattr(args.exc_value, "code", None)))
    try:
        t = threading.Thread(target=entry)
        t.start()
        t.join()
    finally:
        threading.excepthook = old
    return ("logical-exit", tuple(out), tuple(hooked))


def corpus_current_thread_is_the_thread():
    box = {}
    t = threading.Thread(
        target=lambda: box.update(me=threading.current_thread()))
    t.start()
    t.join()
    return ("current-thread", box["me"] is t)


def corpus_current_thread_name():
    box = {}
    t = threading.Thread(
        target=lambda: box.update(name=threading.current_thread().name),
        name="my-thread")
    t.start()
    t.join()
    return ("current-name", box["name"])


def corpus_enumerate_lists_running_thread():
    running, gate = threading.Event(), threading.Event()

    def entry():
        running.set()
        gate.wait(5.0)

    t = threading.Thread(target=entry)
    t.start()
    running.wait(5.0)
    listed = t in threading.enumerate()
    gate.set()
    t.join()
    return ("enumerate", listed, t in threading.enumerate())


def corpus_logging_thread_name():
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(threadName)s:%(message)s"))
    logger = logging.getLogger("threadcache.corpus")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        t = threading.Thread(target=logger.info, args=("hello",),
                             name="logging-thread")
        t.start()
        t.join()
    finally:
        logger.removeHandler(handler)
    return ("logging", stream.getvalue())


def _status(t):
    """The status words of repr(t), without class, name or ident."""
    words = repr(t).rsplit(", ", 1)[1].rstrip(")>").split()
    return " ".join(w for w in words if not w.isdigit())


def corpus_thread_object_states():
    gate = threading.Event()
    t = threading.Thread(target=gate.wait, args=(5.0,), name="states")
    states = [_status(t)]
    t.start()
    states.append(_status(t))
    try:
        t.daemon = True
        daemon_after_start = "allowed"
    except RuntimeError:
        daemon_after_start = "raises"
    gate.set()
    t.join()
    states.append(_status(t))

    class Named(threading.Thread):
        def __init__(self):
            super().__init__(name="sub", daemon=True)

    sub = Named()
    return ("states", tuple(states), daemon_after_start,
            sub.name, sub.daemon, _status(sub))


def corpus_finished_thread_freed_without_gc():
    # a finished thread left in a reference cycle waits for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        ref = weakref.ref(t)
        del t
        return ("freed-without-gc", ref() is None)
    finally:
        if enabled:
            gc.enable()


def corpus_running_thread_reads_itself_alive():
    # the first start on a fresh runtime is a miss, whose body can run
    # before start() returns; the later ones are hits
    seen = []

    def entry():
        me = threading.current_thread()
        seen.append((me.is_alive(), _status(me)))

    for _ in range(3):
        t = threading.Thread(target=entry)
        t.start()
        t.join()
        time.sleep(0.01)  # lets a cached worker park before the next start
    return ("alive-inside-run", tuple(seen))


_CORPUS_VAR = contextvars.ContextVar("corpus_var", default="unset")


def corpus_contextvars_start_fresh():
    # a new thread starts in an empty context: nothing a predecessor set on
    # the same worker is visible, the decimal context included
    seen = []

    def entry():
        seen.append((_CORPUS_VAR.get(), decimal.getcontext().prec))
        _CORPUS_VAR.set("leaked")
        decimal.getcontext().prec = 5

    for _ in range(3):
        t = threading.Thread(target=entry)
        t.start()
        t.join()
        time.sleep(0.01)  # lets a cached worker park before the next start
    return ("contextvars", tuple(seen))


def _hooked_target():
    pass


def _set_hooks(seen):
    """Set threading's trace and profile hooks to record each call of
    _hooked_target in seen; None clears both."""
    def hook(kind):
        def record(frame, event, arg):
            if event == "call" and frame.f_code is _hooked_target.__code__:
                seen.append(kind)
        return record
    threading.settrace(hook("trace") if seen is not None else None)
    threading.setprofile(hook("profile") if seen is not None else None)


def _warm_thread():
    t = threading.Thread(target=lambda: None)
    t.start()
    t.join()
    time.sleep(0.01)  # lets a cached worker park before the next start


def corpus_hooks_set_after_a_worker_started():
    # a new thread runs under the hooks set when it starts
    _warm_thread()
    seen = []
    _set_hooks(seen)
    try:
        t = threading.Thread(target=_hooked_target)
        t.start()
        t.join()
    finally:
        _set_hooks(None)
    return ("hooks-set", tuple(seen))


def corpus_hooks_cleared_after_a_worker_started():
    # a thread made while the hooks were set leaves none to the next one
    seen = []
    _set_hooks(seen)
    try:
        _warm_thread()
    finally:
        _set_hooks(None)
    t = threading.Thread(target=_hooked_target)
    t.start()
    t.join()
    return ("hooks-cleared", tuple(seen))


def corpus_raw_start_runs_without_hooks():
    # a _thread thread starts with no hooks, whatever threading's are
    seen = []
    _set_hooks(seen)
    try:
        _warm_thread()
    finally:
        _set_hooks(None)
    done = threading.Event()

    def entry():
        _hooked_target()
        done.set()

    _thread.start_new_thread(entry, ())
    assert done.wait(5.0)
    return ("raw-start-hooks", tuple(seen))


def corpus_raw_start_exception_reaches_unraisablehook():
    # _thread hands an uncaught exception to sys.unraisablehook
    seen = []
    done = threading.Event()

    def hook(u):
        seen.append((u.err_msg, u.object is entry, str(u.exc_value),
                     u.exc_traceback is not None))
        done.set()

    def entry():
        raise ValueError("raw start failed")

    old = sys.unraisablehook
    sys.unraisablehook = hook
    try:
        _thread.start_new_thread(entry, ())
        assert done.wait(5.0)
    finally:
        sys.unraisablehook = old
    return ("raw-start-unraisable", tuple(seen))


def corpus_start_new_thread_rejects_bad_args():
    # a call _thread refuses raises at once and starts nothing
    out = []
    for call in [(print,), (print, (), [1]), (print, (), ()),
                 (print, (), None)]:
        try:
            _thread.start_new_thread(*call)
            out.append("started")
        except TypeError:
            out.append("TypeError")
    return ("start-new-thread-args", tuple(out))


def corpus_pure_python_local_starts_fresh():
    # _threading_local.local keys on current_thread(): no thread sees an
    # attribute that an earlier one set
    local = _threading_local.local()
    seen = []

    def entry():
        seen.append(getattr(local, "x", None))
        local.x = "set"

    for _ in range(3):
        t = threading.Thread(target=entry)
        t.start()
        t.join()
        time.sleep(0.01)  # lets a cached worker park before the next start
    return ("pure-python-local", tuple(seen))


def _thread_runs():
    """What a new Thread's start+join does: its output, or what start()
    raised."""
    out = []
    t = threading.Thread(target=out.append, args=(1,))
    try:
        t.start()
    except RuntimeError as exc:
        return str(exc)
    t.join()
    return tuple(out)


def corpus_timer_then_thread():
    # a Timer is a Thread subclass that calls threading.Thread.__init__
    fired = threading.Event()
    timer = threading.Timer(0.0, fired.set)
    timer.start()
    timer.join()
    return ("timer-then-thread", fired.is_set(), _thread_runs())


def _foreign(fn):
    """Run fn on a thread that threading did not start; wait for it."""
    done = threading.Event()

    def entry():
        try:
            fn()
        finally:  # a _DummyThread outlives its thread: drop it
            threading._active.pop(_thread.get_ident(), None)
            done.set()

    shim._REAL_START_NEW_THREAD(entry, ())
    assert done.wait(5.0)


def corpus_foreign_current_thread_then_thread():
    # current_thread() on a foreign thread builds a _DummyThread, whose
    # __init__ calls threading.Thread.__init__
    seen = []
    _foreign(lambda: seen.append(type(threading.current_thread()).__name__))
    return ("foreign-then-thread", tuple(seen), _thread_runs())


def _raise_value_error(args):
    raise ValueError("hook failed")


def corpus_excepthook_failure_reaches_sys_excepthook():
    # a threading.excepthook that raises is reported on stderr, and its
    # error is handed to sys.excepthook
    seen = []
    err = io.StringIO()
    old = threading.excepthook, sys.excepthook, sys.stderr
    threading.excepthook = _raise_value_error
    sys.excepthook = lambda *exc_info: seen.append(exc_info[0].__name__)
    sys.stderr = err
    try:
        t = threading.Thread(target=sys.exit, args=(3,))
        t.start()
        t.join()
    finally:
        threading.excepthook, sys.excepthook, sys.stderr = old
    return ("excepthook-failure", err.getvalue(), tuple(seen))


def corpus_raising_target_freed_without_gc():
    # the exception report leaves no cycle through the thread behind; the
    # default excepthook ignores SystemExit and keeps nothing
    enabled = gc.isenabled()
    old = threading.excepthook
    threading.excepthook = threading.__excepthook__
    gc.disable()
    try:
        t = threading.Thread(target=sys.exit, args=(3,))
        t.start()
        t.join()
        ref = weakref.ref(t)
        del t
        return ("raising-freed-without-gc", ref() is None)
    finally:
        threading.excepthook = old
        if enabled:
            gc.enable()


def corpus_joined_non_daemon_leaves_no_shutdown_lock():
    # join drops a non-daemon thread's stop lock from the locks that
    # interpreter exit waits on
    t = threading.Thread(target=lambda: None, daemon=False)
    t.start()
    lock = t._tstate_lock
    t.join()
    return ("no-shutdown-lock", lock is not None,
            lock in threading._shutdown_locks)


def corpus_join_from_foreign_thread():
    # join calls current_thread(), which on a foreign thread builds a
    # _DummyThread
    gate = threading.Event()
    t = threading.Thread(target=gate.wait, args=(5.0,))
    t.start()
    seen = []

    def join():
        gate.set()
        t.join(5.0)
        seen.append(t.is_alive())

    _foreign(join)
    return ("foreign-join", tuple(seen))


def corpus_thread_after_a_raw_start_drops_its_entry():
    # as CPython's test_ident_of_no_threading_threads, a raw start deletes
    # the entry that current_thread() gave it (a _DummyThread, or under the
    # shim its worker's); a Thread started after it must still run
    dropped = threading.Event()

    def drop():
        ident = threading.current_thread().ident
        with threading._active_limbo_lock:
            del threading._active[ident]
        dropped.set()

    _thread.start_new_thread(drop, ())
    dropped.wait(5.0)
    time.sleep(0.05)  # lets a cached worker park before the next start
    out = []
    t = threading.Thread(target=out.append, args=("ran",))
    t.start()
    t.join(5.0)
    return ("start-after-dropped-entry", tuple(out))


def corpus_ids_inside_run_match_the_os_thread():
    # the first start on a fresh runtime is a miss, the later ones hits;
    # either way run() reads the ids of the thread it runs on
    seen = []

    def entry():
        me = threading.current_thread()
        seen.append((me.ident == _thread.get_ident(),
                     me.native_id == _thread.get_native_id()))

    for _ in range(3):
        t = threading.Thread(target=entry)
        t.start()
        t.join()
        time.sleep(0.01)  # lets a cached worker park before the next start
    return ("ids-inside-run", tuple(seen))


CORPUS = [
    corpus_create_join_roundtrip,
    corpus_return_value_is_discarded,
    corpus_args_kwargs,
    corpus_many_threads,
    corpus_exception_reaches_excepthook,
    corpus_join_timeout_then_completion,
    corpus_negative_join_timeout_polls,
    corpus_double_join_is_idempotent,
    corpus_join_before_start_errors,
    corpus_start_twice_errors,
    corpus_self_join_errors,
    corpus_run_override_honored,
    corpus_name_and_ident,
    corpus_detached_fire_and_forget,
    corpus_thread_exit_stops_body,
    corpus_logical_exit_ends_thread_quietly,
    corpus_current_thread_is_the_thread,
    corpus_current_thread_name,
    corpus_enumerate_lists_running_thread,
    corpus_logging_thread_name,
    corpus_thread_object_states,
    corpus_finished_thread_freed_without_gc,
    corpus_running_thread_reads_itself_alive,
    corpus_contextvars_start_fresh,
    corpus_hooks_set_after_a_worker_started,
    corpus_hooks_cleared_after_a_worker_started,
    corpus_raw_start_runs_without_hooks,
    corpus_raw_start_exception_reaches_unraisablehook,
    corpus_start_new_thread_rejects_bad_args,
    corpus_pure_python_local_starts_fresh,
    corpus_timer_then_thread,
    corpus_foreign_current_thread_then_thread,
    corpus_excepthook_failure_reaches_sys_excepthook,
    corpus_raising_target_freed_without_gc,
    corpus_joined_non_daemon_leaves_no_shutdown_lock,
    corpus_join_from_foreign_thread,
    corpus_thread_after_a_raw_start_drops_its_entry,
    corpus_ids_inside_run_match_the_os_thread,
]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda f: f.__name__)
def test_conformance_with_and_without_shim(entry):
    plain = entry()
    rt = ThreadCache(enabled=True)
    shim.install(rt)
    try:
        patched = entry()
    finally:
        shim.uninstall()
        rt.shutdown(join=False)
    assert patched == plain


def test_corpus_covers_required_surface():
    assert len(CORPUS) >= 10


_EXIT_SCRIPT = """
import threading, time
import threadcache.shim as shim
from threadcache import ThreadCache

def late():
    time.sleep(0.3)
    print("non-daemon finished")

shim.install(ThreadCache(enabled=True))
threading.Thread(target=time.sleep, args=(30,), daemon=True).start()
threading.Thread(target=late).start()
"""


def test_interpreter_exit_waits_for_non_daemon_threads_only():
    src = os.path.dirname(os.path.dirname(shim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "non-daemon finished\n"
    assert time.monotonic() - t0 < 10.0  # the daemon's sleep did not hold it


# ---------------------------------------------------------------------------
# cache behavior through the shim

class TestShimCaching:
    def test_threads_are_recycled_not_created(self, shimmed):
        t1 = threading.Thread(target=lambda: None)
        t1.start()
        t1.join()
        assert wait_until(lambda: shimmed.stats().current_idle == 1)
        t2 = threading.Thread(target=lambda: None)
        t2.start()
        t2.join()
        s = shimmed.stats()
        assert s.physical_creates == 1
        assert s.cache_hits == 1

    def test_recycled_idents_repeat(self, shimmed):
        # the id-reuse hazard: consecutive logical threads share an ident
        t1 = threading.Thread(target=lambda: None)
        t1.start()
        t1.join()
        assert wait_until(lambda: shimmed.stats().current_idle == 1)
        t2 = threading.Thread(target=lambda: None)
        t2.start()
        t2.join()
        assert t1.ident == t2.ident

    def test_native_id_set_when_start_returns(self, shimmed):
        # on a hit under one CPU the body has not run when start() returns
        seen = []
        with one_cpu():
            _warm_thread()
            assert wait_until(lambda: shimmed.stats().current_idle == 1)
            t = threading.Thread(
                target=lambda: seen.append(threading.get_native_id()))
            t.start()
            native_id = t.native_id
            t.join(5.0)
        assert not t.is_alive()
        assert shimmed.stats().cache_hits == 1
        assert native_id == seen[0]

    def test_tls_not_reset_on_recycle(self, shimmed):
        # the documented unsoundness: threading.local survives a recycle
        local = threading.local()
        seen = []

        def probe():
            seen.append(getattr(local, "x", None))
            local.x = "stale"

        for _ in range(5):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            wait_until(lambda: shimmed.stats().current_idle >= 1)
        assert "stale" in seen  # a later logical thread saw its predecessor's TLS

    def test_custom_stack_size_falls_back(self, shimmed, monkeypatch):
        # a fallback start runs Thread.start with its own Event and the
        # class's excepthook invoker
        seen = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: seen.append(args.exc_type))

        def boom():
            raise ValueError("boom")

        threading.stack_size(512 * 1024)
        try:
            out = []
            t = threading.Thread(target=lambda: out.append(1))
            t.start()
            t.join()
            assert out == [1]
            bad = threading.Thread(target=boom)
            bad.start()
            bad.join(5.0)
            assert not bad.is_alive()
            assert seen == [ValueError]
            assert shimmed.stats().spawns_total == 0  # real creation path
            assert threading.stack_size() == 512 * 1024  # still in effect
        finally:
            threading.stack_size(0)

    def test_unstarted_fields_match_thread(self, shimmed):
        # drift guard: CachedThread sets Thread.__init__'s fields itself,
        # all but the excepthook closure, which its class holds
        def f(a, k):
            pass

        real = shim._REAL_THREAD(target=f, args=(1,), kwargs={"k": 2})
        cached = shim.CachedThread(target=f, args=(1,), kwargs={"k": 2})
        want = dict(vars(real))
        del want["_invoke_excepthook"]
        got = dict(vars(cached))
        assert got.keys() == want.keys()
        assert re.fullmatch(r"Thread-\d+ \(f\)", got.pop("_name"))
        want.pop("_name")
        assert not got.pop("_started").is_set()
        want.pop("_started")
        assert got == want
        cached.start()
        cached.join(5.0)
        assert shimmed.stats().spawns_total == 1
        assert cached._started.is_set()
        assert not cached.is_alive()

    def test_join_is_threads_own(self):
        # it waits on the stop lock, which a cached start sets to the latch
        assert shim.CachedThread.join is shim._REAL_THREAD.join

    def test_disabled_runtime_is_passthrough(self):
        rt = ThreadCache(enabled=False)
        shim.install(rt)
        try:
            out = []
            t = threading.Thread(target=lambda: out.append(1))
            t.start()
            t.join()
            assert out == [1]
            s = rt.stats()
            assert (s.spawns_total, s.cache_hits, s.physical_creates) == (0, 0, 0)
        finally:
            shim.uninstall()
            rt.shutdown(join=False)

    def test_clamped_to_zero_runtime_starts_real_threads(self):
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=0)
        rt = ThreadCache(enabled=True, retention=cfg)
        shim.install(rt)
        try:
            seen = []
            t = threading.Thread(target=lambda: seen.append(current_task()))
            t.start()
            t.join()
            done = threading.Event()
            _thread.start_new_thread(done.set, ())
            assert done.wait(5.0)
            assert seen == [None]  # ran on a real thread, not a worker
            assert rt.stats().spawns_total == 0
        finally:
            shim.uninstall()
            rt.shutdown(join=False)

    def test_shut_down_runtime_falls_back_to_real_threads(self, shimmed):
        shimmed.shutdown(join=True, timeout=5.0)
        out = []
        t = threading.Thread(target=lambda: out.append(1))
        t.start()
        t.join()
        done = threading.Event()
        _thread.start_new_thread(done.set, ())
        assert done.wait(2.0)
        assert out == [1]
        assert shimmed.stats().spawns_total == 0

    @pytest.fixture
    def shut_down_after_check(self, shimmed, monkeypatch):
        """The runtime is shut down between the shim's eligibility check
        and its spawn, which then raises UsageError."""
        spawn = shimmed.spawn

        def shut_down_then_spawn(*args):
            shimmed.shutdown(join=False)
            return spawn(*args)

        monkeypatch.setattr(shimmed, "spawn", shut_down_then_spawn)
        return shimmed

    def test_thread_start_racing_shutdown_falls_back(
            self, shut_down_after_check):
        seen = []
        t = threading.Thread(target=lambda: seen.append(current_task()))
        t.start()
        t.join(5.0)
        assert not t.is_alive()
        assert seen == [None]  # ran on a real thread, not a worker
        assert shut_down_after_check.stats().spawns_total == 0

    def test_start_new_thread_racing_shutdown_falls_back(
            self, shut_down_after_check):
        seen = []
        done = threading.Event()

        def f():
            seen.append(current_task())
            done.set()

        _thread.start_new_thread(f, ())
        assert done.wait(5.0)
        assert seen == [None]  # ran on a real thread, not a worker
        assert shut_down_after_check.stats().spawns_total == 0

    def test_never_joined_threads_leave_nothing_behind(self, shimmed):
        done = threading.Event()

        def start_unjoined():
            done.clear()
            threading.Thread(target=done.set).start()
            assert done.wait(5.0)

        def all_parked():
            s = shimmed.stats()
            return s.current_idle == s.physical_creates

        grown = net_new_objects(start_unjoined, 2000, all_parked)
        assert grown < 100, f"{grown} objects retained by 2000 threads"
        assert len(shim.handle_map()) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_from_a_shimmed_thread(self, shimmed):
        gate = threading.Event()
        other = threading.Thread(target=gate.wait, args=(5.0,))
        other.start()
        worker, = [w for w in shimmed._live.values()
                   if w._ident == other.ident]
        box = {}

        def fork():
            pid = os.fork()
            if pid == 0:  # the other thread and its worker did not fork
                code = 1
                try:
                    me = threading.current_thread()
                    t0 = time.monotonic()
                    other.join()
                    worker.join()
                    if (time.monotonic() - t0 < 1.0
                            and threading.enumerate() == [me]
                            and me.is_alive() and _status(me) == "started"
                            and not other.is_alive()
                            and not worker.is_alive()):
                        code = 0
                finally:
                    os._exit(code)
            box["pid"] = pid

        t = threading.Thread(target=fork)
        t.start()
        t.join()
        gate.set()
        other.join()
        assert reap_child(box["pid"]) == 0

    def test_install_idempotent_and_uninstall_restores(self):
        real = threading.Thread
        rt = ThreadCache(enabled=True)
        shim.install(rt)
        shim.install(rt)
        assert threading.Thread is shim.CachedThread
        shim.uninstall()
        assert threading.Thread is real
        rt.shutdown(join=False)

    def test_maintenance_thread_never_routes_through_shim(self):
        from threadcache import Policy, RetentionConfig
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=0.03,
                              reap_period=0.01)
        rt = ThreadCache(enabled=True, retention=cfg)
        shim.install(rt)
        try:
            t = threading.Thread(target=lambda: None)
            t.start()
            t.join()
            # the idle worker, the store's timer, culls itself in its own
            # pass while the shim is installed; no deadlock, no recursion
            # into spawn
            assert wait_until(lambda: rt.stats().physical_culls >= 1,
                              timeout=3.0)
            assert rt.stats().spawns_total == 1
        finally:
            shim.uninstall()
            rt.shutdown(join=False)

    def test_start_new_thread_rejects_non_tuple(self, shimmed):
        with pytest.raises(TypeError):
            _thread.start_new_thread(lambda: None, [1, 2])

    def test_raw_start_task_handle_is_joinable_once(self, shimmed):
        # the shim keeps no handle for a raw start and does not detach it:
        # the task's own handle, read through current_task(), joins once
        seen = []
        _thread.start_new_thread(lambda: seen.append(current_task()), ())
        assert wait_until(lambda: seen)
        h, = seen
        assert h.wait(5.0) and h.join() is None
        with pytest.raises(UsageError):
            h.join()

    def test_default_runtime_used_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("THREADCACHE", "1")
        shim.install()
        try:
            t = threading.Thread(target=lambda: None)
            t.start()
            t.join()
            assert shim.active_runtime().stats().spawns_total == 1
        finally:
            shim.uninstall()

    def test_install_without_runtime_twice_keeps_one(self):
        shim.install()
        rt = shim.active_runtime()
        shim.install()
        assert shim.active_runtime() is rt

    def test_uninstall_leaves_no_worker_of_the_runtime_install_built(
            self, monkeypatch):
        monkeypatch.setenv("THREADCACHE", "1")
        before = _worker_threads()
        shim.install()
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        shim.uninstall()
        assert wait_until(lambda: _worker_threads() <= before)

    def test_uninstall_leaves_a_runtime_passed_in_running(self, shimmed):
        shim.uninstall()
        assert shimmed.enabled and not shimmed.closed

    def test_install_of_a_runtime_shuts_down_the_one_install_built(
            self, monkeypatch):
        monkeypatch.setenv("THREADCACHE", "1")
        shim.install()
        built = shim.active_runtime()
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        assert wait_until(lambda: built.stats().current_idle == 1)
        rt = ThreadCache(enabled=True)
        try:
            shim.install(rt)
            assert shim.installed() and shim.active_runtime() is rt
            assert built.closed and built.stats().current_idle == 0
        finally:
            shim.uninstall()
            rt.shutdown(join=False)

    def test_install_of_the_runtime_install_built_hands_it_over(self):
        shim.install()
        built = shim.active_runtime()
        shim.install(built)
        shim.uninstall()
        try:
            assert not built.closed
        finally:
            built.shutdown(join=False)


def _worker_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("threadcache-worker-")}
