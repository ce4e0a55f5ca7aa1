"""Drop-in interposition of the stdlib thread API.

``install()`` replaces ``threading.Thread`` and ``_thread.start_new_thread``
with versions that route thread creation through a ThreadCache runtime, so
unmodified code gains the idle-thread cache. ``install()`` with no runtime
builds one ``ThreadCache`` from the environment and keeps it across repeated
calls; ``uninstall()`` or an ``install(rt)`` shuts it down. A runtime passed
in, the built one too, stays the caller's: the shim never shuts it down. The
original entry points are read once, at import. Both shimmed starts route
through one ``_spawn``, which hands a start to the runtime, or returns None
and the start falls back to the original entry point when:

* a nonzero ``threading.stack_size()`` is in effect (custom stack sizes are
  never served from the cache), or
* the active runtime keeps nothing (``enabled`` reads False): disabled
  (``THREADCACHE=0``) or clamped to 0, which makes the shim passthrough, or
  shut down, so unmodified code still starts threads after
  ``ThreadCache.shutdown()``, also when the shutdown comes between this
  check and the spawn, which then refuses the start.

The shim keeps no table of the threads it started: a ``CachedThread``
keeps only its task's completion latch, and a raw ``start_new_thread``
start keeps no handle, so nothing outlives a thread that is never joined.

Thread exit needs no separate patch: a ``SystemExit`` (what
``_thread.exit()`` and ``threadcache.logical_exit()`` raise) ends the body
as on a real thread. A ``CachedThread`` reports it with the excepthook
invoker that ``Thread`` uses, whose default hook ignores it; a raw start
ignores it, and passes any other exception to ``sys.unraisablehook``, as
``_thread`` does.

While its ``run()`` executes, a ``CachedThread`` is the entry of its worker
in ``threading._active``, so ``current_thread()``, ``enumerate()`` and
logging's ``%(threadName)s`` see it as they would a real thread. Its body
finds the worker from its task, not in that table, which programs edit, and
binds as ``start()`` does: the worker's ids, and the task's completion latch
as its stop lock, ``_tstate_lock``, so ``join``, ``is_alive``, ``repr``,
``threading``'s at-fork hook and, for a non-daemon thread, the wait at
interpreter exit are ``Thread``'s own; only ``start`` is the shim's.
``run()``, like a raw start's function, runs in a fresh ``contextvars``
context, as on a new thread, and under a new thread's hooks: ``threading``'s
trace and profile hooks for a ``CachedThread``, none for a raw start.

A ``CachedThread`` is built without ``Thread.__init__``: it sets the same
fields but shares one never-set ``_started`` Event, and a cached start swaps
in a shared set one, so it builds no Event, Condition or excepthook closure
of its own (all share one, built at import). Only a fallback start gets a
private Event, as ``Thread.start`` needs one. The runtime handle lets go of
the thread's body once it has run, so a finished thread is freed by
reference counting, not left in a cycle for the garbage collector. Another
``Thread`` whose ``__init__`` calls the patched ``threading.Thread.__init__``
(a ``Timer``, a ``_DummyThread``) is built by ``Thread.__init__`` itself.

Known, deliberate unsoundness, mirrored from the native runtime:
thread-local storage is not reset when a physical thread recycles, so a
logical thread can observe a predecessor's ``threading.local`` values (a
pure-Python ``_threading_local.local`` keys on ``current_thread()``, the
new ``CachedThread``, and starts fresh), and a raw ``start_new_thread``
start, like a ``_thread`` thread, does not keep the process alive at
interpreter shutdown.
"""

from __future__ import annotations

import _thread
import contextvars
import sys
import threading
from typing import Mapping, Optional

from .runtime import ThreadCache, UsageError, Worker, _Poisoned, current_task

__all__ = ["install", "uninstall", "installed", "active_runtime",
           "handle_map", "CachedThread"]


# the original entry points, read at import, before any patching can occur
_REAL_THREAD = threading.Thread
_REAL_START_NEW_THREAD = _thread.start_new_thread
_install_lock = threading.Lock()
_NOT_STARTED = threading.Event()  # shared by every unstarted CachedThread
_runtime: Optional[ThreadCache] = None
_own_runtime: Optional[ThreadCache] = None  # install() built it


def _spawn(body):
    """body's handle, or None when the start falls back: no runtime, one that
    keeps nothing, a custom stack size, or a shutdown since the check."""
    rt = _runtime
    if rt is None or not rt.enabled:
        return None
    # stack_size() with no argument also sets the size to 0: put it back
    size = threading.stack_size()
    if size:
        threading.stack_size(size)
        return None
    try:
        return rt.spawn(body)
    except UsageError:  # shut down since the check
        return None


class CachedThread(_REAL_THREAD):
    """threading.Thread lookalike whose start() runs on a recycled worker."""

    # as Thread._bootstrap_inner reports an exception; built once, here
    _invoke_excepthook = staticmethod(threading._make_invoke_excepthook())

    def __init__(self, group=None, target=None, name=None,
                 args=(), kwargs=None, *, daemon=None):
        if not isinstance(self, CachedThread):  # a Timer, a _DummyThread
            return _REAL_THREAD.__init__(self, group, target, name, args,
                                         kwargs, daemon=daemon)
        # the fields Thread.__init__ sets (3.10-3.12), but no Event: only a
        # fallback start, which needs one, builds it
        assert group is None, "group argument must be None for now"
        if name:
            name = str(name)
        else:
            name = threading._newname("Thread-%d")
            if target is not None:
                try:
                    name += f" ({target.__name__})"
                except AttributeError:
                    pass
        self._target = target
        self._name = name
        self._args = args
        self._kwargs = {} if kwargs is None else kwargs
        self._daemonic = threading.current_thread().daemon \
            if daemon is None else daemon
        self._ident = None
        self._native_id = None
        self._tstate_lock = None
        self._started = _NOT_STARTED
        self._is_stopped = False
        self._initialized = True
        self._stderr = sys.stderr
        threading._dangling.add(self)

    def start(self):
        if not self._initialized:
            raise RuntimeError("thread.__init__() not called")
        if self._started.is_set():
            raise RuntimeError("threads can only be started once")
        handle = _spawn(self._cache_body)
        if handle is None:
            self._started = threading.Event()
            return _REAL_THREAD.start(self)
        self._bind(handle)
        if not self._daemonic:  # as Thread._set_tstate_lock
            with threading._shutdown_locks_lock:
                threading._maintain_shutdown_locks()
                threading._shutdown_locks.add(self._tstate_lock)

    def _bind(self, handle):
        """Read as started on the task's worker, with its ids; returns it."""
        worker = handle.worker
        self._ident = worker._ident
        self._native_id = worker._native_id
        # the stop lock first: is_alive asserts that a started thread
        # without one has stopped
        self._tstate_lock = handle._latch
        self._started = Worker._started  # shared and set
        return worker

    def _cache_body(self):
        # a new Thread's hooks, not its worker's; a None hook clears
        sys.settrace(threading._trace_hook)
        sys.setprofile(threading._profile_hook)
        # as start() binds, for a miss whose body runs before it returns
        worker = self._bind(current_task())
        # while run() runs, threading sees this thread, not the worker:
        # current_thread(), enumerate(), logging's threadName
        with threading._active_limbo_lock:  # rebound by threading._after_fork
            threading._active[worker._ident] = self
        try:
            contextvars.Context().run(self.run)  # as a new thread starts
        except:  # SystemExit too, as in Thread._bootstrap_inner
            self._invoke_excepthook(self)
        finally:
            with threading._active_limbo_lock:
                threading._active[worker._ident] = worker

    # Thread's own: it waits on the stop lock. Bound here only because
    # perfbench/layers.py wraps CachedThread.__dict__["join"]
    join = _REAL_THREAD.join


_NO_KWARGS: dict = {}  # start_new_thread's default 3rd arg; never written


def _shim_start_new_thread(function, args, kwargs=_NO_KWARGS):
    if not callable(function):
        raise TypeError("first arg must be callable")
    if not isinstance(args, tuple):
        raise TypeError("2nd arg must be a tuple")
    if not isinstance(kwargs, dict):
        raise TypeError("optional 3rd arg must be a dictionary")

    def body():
        sys.settrace(None)  # a new _thread thread starts with no hooks
        sys.setprofile(None)
        try:
            contextvars.Context().run(function, *args, **kwargs)
        except SystemExit:
            pass
        except BaseException as exc:  # reported at once, as _thread does:
            _Poisoned(exc, function)  # an unjoined value, freed here

    handle = _spawn(body)
    if handle is None:
        return _REAL_START_NEW_THREAD(function, args, kwargs)
    return handle.worker.ident


def install(runtime: Optional[ThreadCache] = None):
    """Activate the interposition; idempotent, reentrancy-safe. Without
    ``runtime``, threads start on one that the shim builds and owns."""
    global _runtime, _own_runtime
    with _install_lock:
        own = _own_runtime
        if runtime is None:
            runtime = _own_runtime = own or ThreadCache()
        else:
            _own_runtime = None
        if _runtime is None:
            threading.Thread = CachedThread
            _thread.start_new_thread = _shim_start_new_thread
        _runtime = runtime
    if own is not None and own is not runtime:
        own.shutdown(join=False)


def uninstall():
    """Restore the original entry points and shut down the runtime that
    ``install()`` built (existing cached threads live on)."""
    global _runtime, _own_runtime
    with _install_lock:
        if _runtime is not None:
            threading.Thread = _REAL_THREAD
            _thread.start_new_thread = _REAL_START_NEW_THREAD
        _runtime = None
        own, _own_runtime = _own_runtime, None
    if own is not None:
        own.shutdown(join=False)


def installed() -> bool:
    return _runtime is not None


def active_runtime() -> Optional[ThreadCache]:
    return _runtime


def handle_map() -> Mapping:
    """Always empty: the shim tracks no handles, as each CachedThread holds
    its own and raw starts keep none. Kept for callers that count it."""
    return {}
