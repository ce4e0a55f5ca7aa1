"""Drop-in interposition of the stdlib thread API.

``install()`` replaces ``threading.Thread`` and ``_thread.start_new_thread``
with versions that route thread creation through a ThreadCache runtime, so
unmodified code gains the idle-thread cache. The original entry points are
read once, at import, and everything falls back to them whenever a request
is not cache-eligible:

* a nonzero ``threading.stack_size()`` is in effect (custom stack sizes are
  never served from the cache),
* the active runtime is disabled (``THREADCACHE=0``), which makes the shim
  byte-for-byte passthrough, or
* the active runtime has been shut down, so unmodified code still starts
  threads after ``ThreadCache.shutdown()``.

The shim keeps no table of the threads it started: each ``CachedThread``
holds its own runtime handle, and a raw ``start_new_thread`` start is
detached, so nothing outlives a thread that is never joined.

Thread exit needs no separate patch: a ``SystemExit`` (what
``_thread.exit()`` and ``threadcache.logical_exit()`` raise) ends the body
as on a real thread. A ``CachedThread`` hands it to ``threading.excepthook``
as ``Thread`` does, whose default ignores it; a raw start ignores it.

While its ``run()`` executes, a ``CachedThread`` is the entry of its worker
in ``threading._active``, so ``current_thread()``, ``enumerate()`` and
logging's ``%(threadName)s`` see it as they would a real thread.

Known, deliberate unsoundness, mirrored from the native runtime: worker
threads are daemonic and thread-local storage is not reset when a physical
thread recycles, so a logical thread can observe a predecessor's
``threading.local`` values, and a still-running logical thread does not
keep the process alive at interpreter shutdown.
"""

from __future__ import annotations

import _thread
import sys
import threading
import traceback
import types
from typing import Mapping, Optional

from .runtime import ThreadCache, current_task, default_runtime

__all__ = ["install", "uninstall", "installed", "active_runtime",
           "handle_map", "CachedThread"]


# the original entry points, read at import, before any patching can occur
_REAL_THREAD = threading.Thread
_REAL_START_NEW_THREAD = _thread.start_new_thread
_install_lock = threading.Lock()
_installed = False
_runtime: Optional[ThreadCache] = None


def _cache_eligible(rt: Optional[ThreadCache]) -> bool:
    return (rt is not None and rt.enabled and not rt.closed
            and threading.stack_size() == 0)


class CachedThread(_REAL_THREAD):
    """threading.Thread lookalike whose start() runs on a recycled worker."""

    _cache_handle = None  # the runtime handle once started on a worker

    def start(self):
        rt = _runtime
        if not self._initialized:
            raise RuntimeError("thread.__init__() not called")
        if self._cache_handle is not None or self._started.is_set():
            raise RuntimeError("threads can only be started once")
        if not _cache_eligible(rt):
            return _REAL_THREAD.start(self)
        handle = rt.spawn(self._cache_body)
        self._cache_handle = handle
        self._ident = handle.worker.ident
        self._started.set()

    def _cache_body(self):
        # while run() runs, threading sees this thread, not the worker:
        # current_thread(), enumerate(), logging's threadName
        ident = self._ident = _thread.get_ident()
        self._native_id = _thread.get_native_id()
        with threading._active_limbo_lock:  # rebound by threading._after_fork
            worker = threading._active[ident]
            threading._active[ident] = self
        try:
            self.run()
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

    def is_alive(self):
        handle = self._cache_handle
        if handle is None:
            return _REAL_THREAD.is_alive(self)
        return not handle.finished


def _shim_start_new_thread(function, args=(), kwargs=None):
    rt = _runtime
    if not callable(function):
        raise TypeError("first arg must be callable")
    if not isinstance(args, tuple):
        raise TypeError("2nd arg must be a tuple")
    if kwargs is None:
        kwargs = {}
    if not _cache_eligible(rt):
        return _REAL_START_NEW_THREAD(function, args, kwargs)

    def body():
        try:
            function(*args, **kwargs)
        except SystemExit:
            pass
        except BaseException:
            print(f"Unhandled exception in thread started by {function!r}",
                  file=sys.stderr)
            traceback.print_exc()

    handle = rt.spawn(body)
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
