"""Drop-in interposition of the stdlib thread API.

``install()`` replaces ``threading.Thread`` and ``_thread.start_new_thread``
with versions that route thread creation through a ThreadCache runtime, so
unmodified code gains the idle-thread cache. The original entry points are
read once, at import, and everything falls back to them whenever a request
is not cache-eligible:

* a nonzero ``threading.stack_size()`` is in effect (custom stack sizes are
  never served from the cache), or
* the active runtime keeps nothing (``enabled`` reads False): disabled
  (``THREADCACHE=0``) or clamped to 0, which makes the shim passthrough, or
  shut down, so unmodified code still starts threads after
  ``ThreadCache.shutdown()``, also when the shutdown comes between this
  check and the spawn, which then refuses the start.

The shim keeps no table of the threads it started: each ``CachedThread``
holds its own runtime handle, and a raw ``start_new_thread`` start is
detached, so nothing outlives a thread that is never joined.

Thread exit needs no separate patch: a ``SystemExit`` (what
``_thread.exit()`` and ``threadcache.logical_exit()`` raise) ends the body
as on a real thread. A ``CachedThread`` hands it to ``threading.excepthook``
as ``Thread`` does, whose default ignores it; a raw start ignores it.

While its ``run()`` executes, a ``CachedThread`` is the entry of its worker
in ``threading._active``, so ``current_thread()``, ``enumerate()`` and
logging's ``%(threadName)s`` see it as they would a real thread. A cached
start makes the task's completion latch its stop lock, ``_tstate_lock``, so
``is_alive``, ``repr``, ``threading``'s at-fork hook and, for a non-daemon
thread, the wait at interpreter exit are ``Thread``'s own; only ``start``
and a fast ``join`` on the handle are the shim's. ``run()``, like a raw
start's function, runs in a fresh ``contextvars`` context, as on a new
thread, and under the hooks a new thread starts with: ``threading``'s
trace and profile hooks for a ``CachedThread``, none for a raw start.

A ``CachedThread`` is built without ``Thread.__init__``: it sets the same
fields but shares one never-set ``_started`` Event, and a cached start swaps
in a shared set one, so it builds no Event, Condition or excepthook closure
of its own. Only a fallback start gets a private Event and excepthook, as
``Thread.start`` needs them. Its runtime handle lets go of the thread's body
once it has run, so a finished thread is freed by reference counting, not
left in a cycle for the garbage collector.

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
import traceback
import types
from typing import Mapping, Optional

from .runtime import (ThreadCache, UsageError, Worker, current_task,
                      default_runtime)

__all__ = ["install", "uninstall", "installed", "active_runtime",
           "handle_map", "CachedThread"]


# the original entry points, read at import, before any patching can occur
_REAL_THREAD = threading.Thread
_REAL_START_NEW_THREAD = _thread.start_new_thread
_install_lock = threading.Lock()
_NOT_STARTED = threading.Event()  # shared by every unstarted CachedThread
_installed = False
_runtime: Optional[ThreadCache] = None


def _cache_eligible(rt: Optional[ThreadCache]) -> bool:
    if rt is None or not rt.enabled:
        return False
    # stack_size() with no argument also sets the size to 0: put it back
    size = threading.stack_size()
    if size:
        threading.stack_size(size)
    return size == 0


class CachedThread(_REAL_THREAD):
    """threading.Thread lookalike whose start() runs on a recycled worker."""

    _cache_handle = None  # the runtime handle once started on a worker

    def __init__(self, group=None, target=None, name=None,
                 args=(), kwargs=None, *, daemon=None):
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
        rt = _runtime
        if not self._initialized:
            raise RuntimeError("thread.__init__() not called")
        if self._started.is_set():
            raise RuntimeError("threads can only be started once")
        handle = None
        if _cache_eligible(rt):
            try:
                handle = rt.spawn(self._cache_body)
            except UsageError:  # shut down since the check
                pass
        if handle is None:
            self._started = threading.Event()
            self._invoke_excepthook = threading._make_invoke_excepthook()
            return _REAL_THREAD.start(self)
        self._cache_handle = handle
        worker = handle.worker
        self._ident = worker._ident
        self._native_id = worker._native_id
        # the stop lock first: is_alive asserts that a started thread
        # without one has stopped
        self._tstate_lock = lk = handle._latch
        self._started = Worker._started  # shared and set
        if not self._daemonic:  # as Thread._set_tstate_lock
            with threading._shutdown_locks_lock:
                threading._maintain_shutdown_locks()
                threading._shutdown_locks.add(lk)

    def _cache_body(self):
        # a new Thread's hooks, not its worker's; a None hook clears
        sys.settrace(threading._trace_hook)
        sys.setprofile(threading._profile_hook)
        # while run() runs, threading sees this thread, not the worker:
        # current_thread(), enumerate(), logging's threadName
        ident = self._ident = _thread.get_ident()
        self._native_id = _thread.get_native_id()
        with threading._active_limbo_lock:  # rebound by threading._after_fork
            worker = threading._active[ident]
            # as start() does, for a miss whose body runs before it returns
            self._tstate_lock = worker.task._latch
            self._started = Worker._started
            threading._active[ident] = self
        try:
            contextvars.Context().run(self.run)  # as a new thread starts
        except BaseException:  # SystemExit too, as in Thread._bootstrap_inner
            args = threading.ExceptHookArgs(
                (*sys.exc_info(), self))
            try:
                threading.excepthook(args)
            except Exception:
                pass
        finally:
            with threading._active_limbo_lock:
                threading._active[ident] = worker

    def join(self, timeout=None):
        handle = self._cache_handle
        if handle is None:
            return _REAL_THREAD.join(self, timeout)
        if current_task() is handle:
            raise RuntimeError("cannot join current thread")
        handle.wait(timeout)


_NO_KWARGS: dict = {}  # start_new_thread's default 3rd arg; never written


def _shim_start_new_thread(function, args, kwargs=_NO_KWARGS):
    rt = _runtime
    if not callable(function):
        raise TypeError("first arg must be callable")
    if not isinstance(args, tuple):
        raise TypeError("2nd arg must be a tuple")
    if not isinstance(kwargs, dict):
        raise TypeError("optional 3rd arg must be a dictionary")
    if not _cache_eligible(rt):
        return _REAL_START_NEW_THREAD(function, args, kwargs)

    def body():
        sys.settrace(None)  # a new _thread thread starts with no hooks
        sys.setprofile(None)
        try:
            contextvars.Context().run(function, *args, **kwargs)
        except SystemExit:
            pass
        except BaseException:
            print(f"Unhandled exception in thread started by {function!r}",
                  file=sys.stderr)
            traceback.print_exc()

    try:
        handle = rt.spawn(body)
    except UsageError:  # shut down since the check
        return _REAL_START_NEW_THREAD(function, args, kwargs)
    handle.detach()
    return handle.worker.ident


def install(runtime: Optional[ThreadCache] = None):
    """Activate the interposition; idempotent, reentrancy-safe."""
    global _installed, _runtime
    with _install_lock:
        _runtime = runtime if runtime is not None else default_runtime()
        if not _installed:
            threading.Thread = CachedThread
            _thread.start_new_thread = _shim_start_new_thread
            _installed = True


def uninstall():
    """Restore the original entry points (existing cached threads live on)."""
    global _installed, _runtime
    with _install_lock:
        if _installed:
            threading.Thread = _REAL_THREAD
            _thread.start_new_thread = _REAL_START_NEW_THREAD
            _installed = False
        _runtime = None


def installed() -> bool:
    return _installed


def active_runtime() -> Optional[ThreadCache]:
    return _runtime


_NO_HANDLES: Mapping = types.MappingProxyType({})


def handle_map() -> Mapping:
    """Always empty: the shim tracks no handles, as each CachedThread holds
    its own and raw starts are detached. Kept for callers that count it."""
    return _NO_HANDLES
