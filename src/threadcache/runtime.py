"""Thread-recycling runtime.

A *physical* thread is one OS thread; a *logical* thread is one spawn→exit
lifetime as seen through the API. When a logical thread terminates, its
physical thread is parked on a LIFO idle store instead of exiting, and the
next spawn pops it and hands it the new task. The LIFO order favors the
worker with the most residual cache residency and scheduling affinity.

Fast-path rules, in order, for every recycle:

1. run the task's entry,
2. fire the completion latch (so join returns while the worker lives on),
3. only then publish the worker on the idle store.

Joiners therefore never observe a worker in the store whose task has not
completed.

A cache hit takes the store's lock once (the pop, which also counts the
hit) and releases the worker's park lock; it takes no runtime lock. Each
worker owns one park lock for life: a successful acquire leaves it held,
which re-arms it, and whoever removes a worker from the store releases it
exactly once.

Set ``THREADCACHE=0`` to disable caching entirely: every spawn is then a
physical create and every exit a physical exit.
"""

from __future__ import annotations

import _thread
import enum
import itertools
import logging
import os
import threading
import time
from dataclasses import dataclass
from threading import Thread as _OSThread  # real class; immune to shim patching
from typing import Any, Callable, Dict, List, Optional

from . import retention as _retention
from .idle_store import IdleStore
from .retention import Policy, RetentionConfig

log = logging.getLogger(__name__)

_NO_ARG = object()
_TERMINATE_ORDER = object()


class _TaskContext(threading.local):
    """The worker running on the calling thread, if any.

    Each worker sets ``worker`` once; every other thread reads the class
    default, so a lookup on a spawner misses without raising.
    """
    worker = None


_current = _TaskContext()


class WorkerState(enum.Enum):
    NASCENT = "nascent"
    RUNNING = "running"
    IDLE = "idle"
    TERMINATING = "terminating"


# join_state values (plain ints: compared on the join fast path)
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
    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc


class _LogicalExit(BaseException):
    __slots__ = ("status",)

    def __init__(self, status):
        self.status = status


def logical_exit(status: Any = None):
    """Terminate the calling *logical* thread with the given exit status.

    Unwinds back to the dispatch loop; the physical thread survives and
    recycles. On a thread not managed by any runtime this falls through to
    genuine thread termination.
    """
    w = _current.worker
    if w is not None and w.task is not None:
        raise _LogicalExit(status)
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

    The latch is a raw lock held until the task completes; ``wait`` is
    non-consuming and supports multiple waiters, ``join`` consumes the
    handle exactly once.
    """

    __slots__ = ("_entry", "_arg", "_latch", "_value", "_fired",
                 "_join_state", "logical_id", "worker_id", "worker_ident")

    _ids = itertools.count(1)

    def __init__(self, entry, arg=_NO_ARG):
        lk = _thread.allocate_lock()
        lk.acquire()
        self._latch = lk
        self._entry = entry
        self._arg = arg
        self._value = None
        self._fired = False
        self._join_state = JOINABLE
        self.logical_id = next(JoinHandle._ids)
        self.worker_id = None
        self.worker_ident = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the task completes; True on completion, False on timeout.

        Does not consume the handle and may be called by any number of
        threads. A negative timeout polls, as for ``threading.Thread.join``.
        """
        if self._fired:
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
        st = self._join_state
        if st != JOINABLE:
            raise UsageError("handle already %s" %
                             ("joined" if st == JOINED else "detached"))
        self._join_state = JOINED
        if not self._fired:
            lk = self._latch
            lk.acquire()
            lk.release()  # let waiters through
        v = self._value
        if type(v) is _Poisoned:
            raise TaskPoisoned("task entry raised") from v.exc
        return v

    def detach(self):
        """Give up the right to join; the worker still recycles on completion."""
        st = self._join_state
        if st != JOINABLE:
            raise UsageError("cannot detach a handle already %s" %
                             ("joined" if st == JOINED else "detached"))
        self._join_state = DETACHED

    @property
    def join_state(self) -> int:
        return self._join_state

    @property
    def finished(self) -> bool:
        return self._fired


class Worker:
    """One physical thread: identity, state, park channel and the runtime and
    task it serves (``task`` is None outside a dispatch)."""

    __slots__ = ("worker_id", "state", "idle_since", "ident", "rt", "task",
                 "_park_lock", "_box")

    def __init__(self, worker_id: int, rt: "ThreadCache"):
        self.worker_id = worker_id
        self.state = WorkerState.NASCENT
        self.idle_since = 0
        self.ident = None
        self.rt = rt
        self.task = None
        lk = _thread.allocate_lock()
        lk.acquire()
        self._park_lock = lk
        self._box = None


class ThreadCache:
    """The runtime: spawn/join/detach with worker recycling.

    All public operations are safe to call from any thread. Handles may be
    joined from a thread other than the spawner.
    """

    def __init__(self, enabled: Optional[bool] = None,
                 retention: Optional[RetentionConfig] = None):
        if enabled is None:
            enabled = os.environ.get("THREADCACHE", "1") != "0"
        self._enabled = bool(enabled)
        self._retention = retention if retention is not None \
            else RetentionConfig.from_env()
        self._store = IdleStore()
        self._fast_admit = self._retention.policy is Policy.UNBOUNDED
        # cold-path counters; cache hits are counted by the store's pops
        self._count_lock = threading.Lock()
        self._creates = 0
        self._failed = 0
        self._culls = 0
        self._worker_ids = itertools.count(1)
        self._reset_hooks: List[Callable] = []
        self._live: Dict[int, _OSThread] = {}  # worker_id -> thread, live only
        self._stop_event = threading.Event()
        self._reaper = None
        if self._enabled and self._retention.needs_reaper:
            self._reaper = _OSThread(target=self._reaper_loop,
                                     name="threadcache-reaper", daemon=True)
            self._reaper.start()

    # -- public API -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def retention(self) -> RetentionConfig:
        return self._retention

    @property
    def closed(self) -> bool:
        """True once shutdown has begun; later spawns raise UsageError."""
        return self._stop_event.is_set()

    def spawn(self, entry: Callable, arg: Any = _NO_ARG) -> JoinHandle:
        """Start a logical thread; reuses an idle worker when one exists.

        Raises SpawnError if the physical-creation fallback fails; the task
        is discarded and only spawns_total reflects the attempt. Raises
        UsageError after shutdown: the store is empty then, so the check
        sits on the create path only.
        """
        if entry is None:
            raise UsageError("entry must be callable")
        task = JoinHandle(entry, arg)
        if self._enabled:
            w = self._store.pop()
            if w is not None:
                task.worker_ident = w.ident
                w._box = task
                w._park_lock.release()
                return task
        w = Worker(next(self._worker_ids), self)
        wid = w.worker_id
        w._box = task  # not a thread arg: the thread would keep it for life
        t = _OSThread(target=self._dispatch_loop, args=(w,),
                      name=f"threadcache-worker-{wid}", daemon=True)
        # registered and counted before start: a disabled-mode worker can
        # exit, and unregister itself, before start() returns
        with self._count_lock:
            if self._stop_event.is_set():
                raise UsageError("spawn after shutdown")
            self._live[wid] = t
            self._creates += 1
        try:
            t.start()
        except BaseException as exc:
            with self._count_lock:
                del self._live[wid]
                self._creates -= 1
                self._failed += 1
            raise SpawnError(f"physical thread creation failed: {exc}") from exc
        w.ident = t.ident
        task.worker_ident = t.ident
        return task

    def stats(self) -> CacheStats:
        """Snapshot of the counters; monotonic but not mutually linearized.

        spawns_total is cache hits + physical creates + failed spawns.
        """
        with self._count_lock:
            c, f, k = self._creates, self._failed, self._culls
        store = self._store
        h = store.pops
        return CacheStats(spawns_total=h + c + f, cache_hits=h,
                          physical_creates=c, physical_culls=k,
                          current_idle=store.count, peak_idle=store.peak)

    def add_reset_hook(self, fn: Callable):
        """Register a best-effort per-dispatch initializer.

        Runs on the worker before each task. Thread-local state is NOT
        otherwise reset between logical threads; entries must not rely on
        virgin thread-local values.
        """
        self._reset_hooks.append(fn)

    def current_worker(self) -> Optional[Worker]:
        """The worker of this runtime running a task on the calling thread."""
        w = _current.worker
        return w if w is not None and w.task is not None and w.rt is self \
            else None

    def reap(self, now: Optional[int] = None) -> int:
        """Run one retention maintenance pass; returns the cull count."""
        if now is None:
            now = time.monotonic_ns()
        culled = _retention.reap(self._store, now, self._retention)
        for w in culled:
            self._terminate_worker(w)
        return len(culled)

    def shutdown(self, join: bool = True, timeout: float = 5.0):
        """Terminate idle workers and the reaper; running tasks finish first.

        Closing the store drains it in one step; a worker that finishes its
        task afterwards finds its push refused and exits. With ``join`` it
        waits, up to ``timeout`` in all, for every live worker to exit but
        the calling one, which exits once its task returns.
        """
        self._stop_event.set()
        for w in self._store.close():
            self._terminate_worker(w)
        if join:
            deadline = time.monotonic() + timeout
            if self._reaper is not None:
                self._reaper.join(max(0.0, deadline - time.monotonic()))
            me = threading.get_ident()
            with self._count_lock:
                threads = [t for t in self._live.values() if t.ident != me]
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))

    # -- internals --------------------------------------------------------

    def _terminate_worker(self, w: Worker):
        w._box = _TERMINATE_ORDER
        w._park_lock.release()

    def _dispatch_loop(self, worker: Worker):
        task = worker._box
        worker._box = None
        park = worker._park_lock
        store = self._store
        enabled = self._enabled
        fast = self._fast_admit
        running, idle = WorkerState.RUNNING, WorkerState.IDLE  # enum lookups
        worker.ident = threading.get_ident()
        _current.worker = worker
        while True:
            worker.state = running
            task.worker_id = worker.worker_id
            worker.task = task
            if self._reset_hooks:
                for hook in self._reset_hooks:
                    try:
                        hook(worker)
                    except Exception:
                        log.exception("reset hook failed")
            try:
                arg = task._arg
                task._value = task._entry() if arg is _NO_ARG \
                    else task._entry(arg)
            except _LogicalExit as exc:
                task._value = exc.status
            except SystemExit as exc:
                task._value = exc.code
            except BaseException as exc:
                task._value = _Poisoned(exc)
            worker.task = None
            task._fired = True  # the latch fires strictly before publication
            task._latch.release()
            task = arg = None  # an idle worker holds no task, value or arg
            if not enabled:
                break
            if not fast:
                decision = _retention.admit(worker, store,
                                            time.monotonic_ns(),
                                            self._retention)
                if decision.verdict is _retention.Verdict.TERMINATE:
                    break
                worker.state = idle
                parked = store.push(worker)
                for ev in decision.evictions:
                    self._terminate_worker(ev)
                if not parked:  # store closed by shutdown
                    break
            else:
                worker.state = idle
                if not store.push(worker):  # store closed by shutdown
                    break
            park.acquire()  # until next task or terminate order; re-arms
            task = worker._box
            worker._box = None
            if task is _TERMINATE_ORDER:
                break
        worker.state = WorkerState.TERMINATING
        with self._count_lock:
            self._culls += 1
            del self._live[worker.worker_id]

    def _reaper_loop(self):
        cfg = self._retention
        while not self._stop_event.wait(cfg.reap_period):
            try:
                self.reap()
            except Exception:
                log.exception("reaper pass failed")


_default_lock = threading.Lock()
_default: Optional[ThreadCache] = None


def default_runtime() -> ThreadCache:
    """Process-wide shared runtime, created lazily from the environment."""
    global _default
    with _default_lock:
        if _default is None:
            _default = ThreadCache()
        return _default


def _reset_default_runtime():
    """Testing aid: drop the shared runtime (shuts the old one down)."""
    global _default
    with _default_lock:
        old, _default = _default, None
    if old is not None:
        old.shutdown(join=False)
