"""Thread-recycling runtime.

A *physical* thread is one OS thread; a *logical* thread is one spawn→exit
lifetime as seen through the API. When a logical thread terminates, its
physical thread is parked on a LIFO idle store instead of exiting, and the
next spawn pops it and hands it the new task. The LIFO order favors the
worker with the most residual cache residency and scheduling affinity.

Fast-path rules, in order, for every recycle:

1. run the task's entry, set the handle's value, which marks it done, and
   drop the handle's entry and arg,
2. fire the completion latch (so join returns while the worker lives on),
3. only then publish the worker on the idle store.

Joiners therefore never observe a worker in the store whose task has not
completed.

A cache hit pops a worker, counts itself in its ``hits``, writes the task
into its ``task`` slot and releases its park lock: no runtime lock, and
under Unbounded, the default, no store lock. Each worker owns one park
lock for life: a successful acquire leaves it held, which re-arms it, and
whoever removes a worker from the store releases it exactly once, as a
worker the closed store refuses releases its own. A worker woken with no
task exits: that is its one way out.

Workers run on raw ``_thread`` threads: starting one costs no
``Thread.__init__``, ``Event`` or bootstrap. A ``Worker`` is itself the
``Thread`` that ``threading`` sees: it puts itself in ``threading._active``
before any task runs, so ``current_thread()`` in a task is the worker, and
``enumerate()`` and ``active_count()`` see idle and running workers as they
would ``threading.Thread``s; it removes itself on exit and then releases
its stop lock, which is its ``_tstate_lock``, so ``Thread.join``,
``is_alive`` and ``repr`` read it as they read a ``Thread``'s.

A runtime whose idle store is closed keeps nothing: every spawn is a
physical create and every exit a physical exit. ``shutdown`` closes it, as
do ``THREADCACHE=0`` (``enabled=False``), a clamp of 0 and a fork in a task.

A runtime starts no thread of its own: under a reaping policy the store's
oldest idle worker, its timer, runs each retention pass, one period after
it parks and once a period after that. A forked child starts with the
forking thread alone: the at-fork hook starts no thread.
"""

from __future__ import annotations

import _thread
import itertools
import logging
import os
import sys
import threading
import time
import weakref
from _thread import start_new_thread as _start_new_thread  # immune to the shim
from dataclasses import dataclass
from threading import Thread as _OSThread  # real class; immune to shim patching
from typing import Any, Callable, Dict, Optional

from .idle_store import IdleStore
from .retention import RetentionConfig

log = logging.getLogger(__name__)

_NO_ARG = object()
_PENDING = object()  # a handle's value until its task completes


class _TaskContext(threading.local):
    """The worker running on the calling thread, if any.

    Each worker sets ``worker`` once; every other thread reads the class
    default, so a lookup on a spawner misses without raising.
    """
    worker = None


_current = _TaskContext()


# JoinHandle._state values (plain ints: compared on the join fast path)
JOINABLE, JOINED, DETACHED = 0, 1, 2


class UsageError(RuntimeError):
    """API misuse: double join, join-after-detach, and friends."""


class DeadlockError(UsageError):
    """A task tried to join its own handle."""


class SpawnError(RuntimeError):
    """The OS thread-creation fallback failed."""


class TaskPoisoned(Exception):
    """The task's entry raised; the original exception is the __cause__."""


class _Poisoned:
    __slots__ = ("exc", "entry", "_unreported")
    # the only args type that the default sys.unraisablehook accepts
    _Args = next(t for t in tuple.__subclasses__()
                 if t.__name__ == "UnraisableHookArgs")

    def __init__(self, exc, entry=None):
        self.exc, self.entry = exc, entry  # entry: until reported or joined
        self._unreported = _thread.allocate_lock()

    def report(self):  # once, whether the worker or detach() calls first
        if self._unreported.acquire(False):  # as _thread reports a thread's
            exc, by, self.entry = self.exc, self.entry, None
            args = self._Args((type(exc), exc, exc.__traceback__,
                               "Exception ignored in thread started by", by))
            try:
                (sys.unraisablehook or sys.__unraisablehook__)(args)
            except BaseException:  # even SystemExit: the default reports
                sys.__unraisablehook__(args)


def logical_exit(status: Any = None):
    """Terminate the calling *logical* thread with the given exit status.

    Raises ``SystemExit(status)``, as ``_thread.exit()`` and ``sys.exit()``
    do, so an ``except SystemExit`` in the task catches it. In a task it
    unwinds to the dispatch loop, which takes the code as the task's value,
    and the physical thread recycles; on any other thread it terminates the
    thread for real.
    """
    raise SystemExit(status)


def current_task() -> Optional["JoinHandle"]:
    """Handle of the logical thread running on the calling thread, if any."""
    w = _current.worker
    return w.task if w is not None else None


@dataclass(frozen=True)
class CacheStats:
    spawns_total: int
    cache_hits: int
    physical_creates: int
    physical_culls: int
    current_idle: int
    peak_idle: int


class JoinHandle:
    """The logical-thread record: entry, one-shot completion latch, join state.

    The task is done once its value is set; the latch is a raw lock held
    until then. ``wait`` is non-consuming and supports multiple waiters,
    ``join`` consumes the handle exactly once. ``worker`` is the ``Worker``
    that runs the task, set by ``spawn`` before it returns. Once the task
    has run, before the latch fires, the handle lets go of its entry and
    arg, so a kept handle pins neither, and a ``CachedThread`` whose bound
    method is the entry is in no cycle with its handle.
    """

    __slots__ = ("_entry", "_arg", "_latch", "_value", "_state",
                 "logical_id", "worker")

    _ids = itertools.count(1)

    def __init__(self, entry, arg=_NO_ARG):
        lk = _thread.allocate_lock()
        lk.acquire()
        self._latch = lk
        self._entry = entry
        self._arg = arg
        self._value = _PENDING
        self._state = JOINABLE
        self.logical_id = next(JoinHandle._ids)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the task completes; True on completion, False on timeout.

        Does not consume the handle and may be called by any number of
        threads. A negative timeout polls, as for ``threading.Thread.join``.
        """
        if self._value is not _PENDING:
            return True
        lk = self._latch
        if timeout is None:
            lk.acquire()
        elif not lk.acquire(True, timeout if timeout > 0 else 0):
            return False
        lk.release()  # let further waiters through
        return True

    def join(self) -> Any:
        """Wait for completion and return the task's exit status.

        At most one join per handle; a detached or already joined handle
        raises UsageError without blocking, self-join raises DeadlockError.
        A poisoned task (entry raised) surfaces as TaskPoisoned.
        """
        w = _current.worker
        if w is not None and w.task is self:
            raise DeadlockError("a task cannot join its own handle")
        st = self._state
        if st != JOINABLE:
            raise UsageError("handle already %s" %
                             ("joined" if st == JOINED else "detached"))
        self._state = JOINED
        if self._value is _PENDING:
            lk = self._latch
            lk.acquire()
            lk.release()  # let waiters through
        v = self._value
        if type(v) is _Poisoned:
            v.entry = None  # it is never reported now
            raise TaskPoisoned("task entry raised") from v.exc
        return v

    def detach(self):
        """Give up the right to join; the worker still recycles on completion.
        A task that raised, or raises later, goes to sys.unraisablehook."""
        st = self._state
        if st != JOINABLE:
            raise UsageError("cannot detach a handle already %s" %
                             ("joined" if st == JOINED else "detached"))
        self._state = DETACHED
        if type(self._value) is _Poisoned:  # done: its worker did not report
            self._value.report()


class Worker(_OSThread):
    """One physical thread, and its record in ``threading._active``: the
    park channel, stop lock and the task it serves. ``task`` is the
    hand-off: the spawner writes it before waking the worker, and it is
    None outside a dispatch. Its runtime knows it by ``worker_id``, the
    runtime's miss count when it was registered.

    Like ``threading._DummyThread`` it enters ``threading._active`` itself,
    but it is built without ``Thread.__init__``: no Event of its own. It
    shares one set ``_started`` Event, so ``start()`` and setting ``daemon``
    raise as on a started thread. Its ``_tstate_lock`` is allocated held and
    released by the worker as it exits, so ``Thread.join``, ``is_alive``,
    ``repr`` and ``threading._after_fork`` treat it as a ``Thread``'s. The
    worker registers itself before its first task and removes itself as it
    exits.
    """

    __slots__ = ("worker_id", "idle_since", "task", "hits",
                 "_park_lock", "_tstate_lock")

    _initialized = True
    _daemonic = True
    _is_stopped = False
    _ident = _native_id = None  # set by the thread itself once it runs
    _started = threading.Event()
    _started.set()

    def __init__(self, worker_id: int, task: JoinHandle):
        self._name = f"threadcache-worker-{worker_id}"
        self.worker_id = worker_id
        self.task = task  # not a thread arg: the thread would keep it for life
        self.hits = 0  # cache hits; only the spawn that popped it writes
        lk = _thread.allocate_lock()
        lk.acquire()
        self._park_lock = lk
        lk = _thread.allocate_lock()
        lk.acquire()
        self._tstate_lock = lk  # released once the worker has exited


class ThreadCache:
    """The runtime: spawn/join/detach with worker recycling.

    All public operations are safe to call from any thread. Handles may be
    joined from a thread other than the spawner. Retention passes run on
    the store's timer, the oldest idle worker, when the policy reaps.
    """

    def __init__(self, enabled: Optional[bool] = None,
                 retention: Optional[RetentionConfig] = None):
        if enabled is None:
            enabled = os.environ.get("THREADCACHE", "1") != "0"
        self._store = IdleStore(retention if retention is not None
                                else RetentionConfig.from_env())
        if not enabled:
            self._store.close()
        # cold-path counters; cache hits are counted on the workers
        self._count_lock = threading.Lock()
        self._misses = 0  # spawns past the shutdown check that found no idle
        self._creates = 0
        self._gone_hits = 0  # the hits of workers that exited or did not fork
        self._live: Dict[int, Worker] = {}  # live workers by worker_id
        self._closed = False  # set by shutdown
        _runtimes.add(self)

    # -- public API -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """False once the store is closed: the runtime keeps no worker."""
        return not self._store.closed

    @property
    def closed(self) -> bool:
        """True once shutdown has begun; later spawns raise UsageError."""
        return self._closed

    def spawn(self, entry: Callable, arg: Any = _NO_ARG) -> JoinHandle:
        """Start a logical thread; reuses an idle worker when one exists.

        Raises SpawnError if the physical-creation fallback fails; the task
        is discarded and only spawns_total reflects the attempt. Raises
        UsageError after shutdown: the store is empty then, so the check
        sits on the create path only.
        """
        if not callable(entry):
            raise UsageError("entry must be callable")
        task = JoinHandle(entry, arg)
        w = self._store.pop()
        if w is not None:
            w.hits += 1  # w is the popper's until its park lock is released
            task.worker = w
            w.task = task
            w._park_lock.release()
            return task
        # registered and counted before start: an uncached worker can
        # exit, and unregister itself, before spawn returns
        with self._count_lock:
            if self._closed:
                raise UsageError("spawn after shutdown")
            wid = self._misses = self._misses + 1
            w = self._live[wid] = Worker(wid, task)
            self._creates += 1
        task.worker = w
        started = _thread.allocate_lock()
        started.acquire()
        try:
            _start_new_thread(self._dispatch_loop, (w, started))
        except BaseException as exc:
            with self._count_lock:
                del self._live[wid]
                self._creates -= 1
            w._tstate_lock.release()  # a shutdown waiting for it goes on
            raise SpawnError(f"physical thread creation failed: {exc}") from exc
        # until the worker is visible to threading, as Thread.start waits
        started.acquire()
        return task

    def stats(self) -> CacheStats:
        """Snapshot of the counters, exact at quiescence.

        spawns_total is cache hits plus misses, and physical_culls is
        physical creates minus live workers. cache_hits sums the hits that
        each spawn counts on the worker it pops, in the lock section that
        reads the others; current_idle and peak_idle, which never falls nor
        exceeds the true peak, are read without it. A spawn that races
        ``shutdown`` may run its task instead of raising UsageError.
        """
        with self._count_lock:
            m, c, live = self._misses, self._creates, len(self._live)
            h = self._gone_hits + sum(w.hits for w in self._live.values())
        store = self._store
        return CacheStats(spawns_total=h + m, cache_hits=h,
                          physical_creates=c, physical_culls=c - live,
                          current_idle=store.count, peak_idle=store.peak)

    def shutdown(self, join: bool = True, timeout: float = 5.0):
        """Terminate idle workers; running tasks finish first.

        Closing the store drains it in one step; a worker that finishes its
        task afterwards is refused by it and terminates itself. With
        ``join`` it waits, up to ``timeout`` in all, for every live worker
        to exit but the calling one, which exits once its task returns.
        """
        self._closed = True
        self._terminate(self._store.close())
        if join:
            deadline = time.monotonic() + timeout
            me = threading.get_ident()
            with self._count_lock:
                workers = [w for w in self._live.values() if w._ident != me]
            for w in workers:  # some may not have started yet
                w.join(deadline - time.monotonic())

    # -- internals --------------------------------------------------------

    def _terminate(self, workers):  # whatever the store hands back
        for w in workers:
            w._park_lock.release()  # woken with no task: it exits

    def _dispatch_loop(self, worker: Worker, started):
        """The worker's thread: run its task, clear the handle's entry and
        arg, fire the latch, then park on the store until the next task; it
        parks as the store's timer, one period at a time with a pass after
        each, if it is the timer as it parks. It exits only when woken with
        no task: by ``_terminate``, from whoever takes it from the store."""
        # become visible to threading before any user code can call
        # current_thread(), which would otherwise make a _DummyThread that
        # is never removed; then install the hooks, as Thread does
        ident = worker._ident = _thread.get_ident()
        worker._native_id = _thread.get_native_id()
        with threading._active_limbo_lock:  # rebound by threading._after_fork
            threading._active[ident] = worker
        if threading._trace_hook:
            sys.settrace(threading._trace_hook)
        if threading._profile_hook:
            sys.setprofile(threading._profile_hook)
        started.release()
        task = worker.task
        park = worker._park_lock
        store = self._store
        timed, period = store._timed, store.period
        _current.worker = worker
        while True:
            try:
                arg = task._arg
                task._value = task._entry() if arg is _NO_ARG \
                    else task._entry(arg)
            except SystemExit as exc:  # logical_exit(), sys.exit()
                task._value = exc.code
            except BaseException as exc:
                task._value = _Poisoned(exc, task._entry)
                if task._state == DETACHED:  # else detach() reports it
                    task._value.report()
            # as Thread.run drops its target: a kept handle pins no arg nor
            # entry (see _Poisoned), and a CachedThread is in no cycle with it
            task._entry = task._arg = arg = None
            worker.task = None
            task._latch.release()  # fires strictly before publication
            task = None  # an idle worker holds no task or value
            exiting = store.push(worker)
            if exiting:  # the clamp's oldest, or this worker if refused
                self._terminate(exiting)
                exiting = None  # a parked worker holds no other worker
            # a parked timer stays the front until it leaves the store
            if timed and worker is store.timer:
                while not park.acquire(True, period):  # True: woken, re-armed
                    self._reap_pass(worker)
            else:
                park.acquire()  # until the next task or a terminate; re-arms
            task = worker.task
            if task is None:  # woken by _terminate
                break
        with self._count_lock:
            self._gone_hits += self._live.pop(worker.worker_id).hits
        with threading._active_limbo_lock:  # a program may have deleted it
            threading._active.pop(ident, None)
        worker._tstate_lock.release()

    def _reap_pass(self, worker: Worker):
        """The store's pass, if worker is still its timer: a spawn may pop
        it after its park times out, so ``run_pass`` checks under the lock."""
        try:
            culled = self._store.run_pass(worker, time.monotonic_ns())
        except Exception:
            log.exception("retention pass failed")
            return
        self._terminate(culled)


_runtimes: "weakref.WeakSet[ThreadCache]" = weakref.WeakSet()


def _after_fork_in_child():
    """Only the forking thread survives a fork. Each runtime forgets the
    workers that did not fork, so they count culled, stops those that
    ``threading._after_fork`` did not (not yet started, or running a
    shimmed thread, which holds their entry in ``threading._active``) and
    empties its store, timer included: the hook starts no thread, and the
    child's first worker to park is the timer if the policy reaps. In a
    child forked from a task every runtime closes its store, so the forking
    worker exits after its task, as a forked ``threading.Thread`` does, and
    no worker parks that would outlive the task and keep the child from
    ending. A task that a forgotten worker was running
    never finishes in the child, so its handle completes there as poisoned
    and a wait or join on it returns at once."""
    me = _thread.get_ident()
    from_worker = _current.worker is not None
    for rt in list(_runtimes):
        rt._count_lock._at_fork_reinit()
        rt._store.after_fork()
        if from_worker:
            rt._store.close()
        for w in [w for w in rt._live.values() if w._ident != me]:
            rt._gone_hits += rt._live.pop(w.worker_id).hits
            w._reset_internal_locks(False)  # as threading._after_fork does
            task = w.task
            if task is not None:
                if task._value is _PENDING:
                    task._value = _Poisoned(RuntimeError(
                        "the task's thread did not survive fork()"))
                task._latch._at_fork_reinit()  # released: the task is done


os.register_at_fork(after_in_child=_after_fork_in_child)
