"""Drop-in interposition of the stdlib thread API.

``install()`` replaces ``threading.Thread`` and ``_thread.start_new_thread``
with versions that route thread creation through a ThreadCache runtime, so
unmodified code gains the idle-thread cache. The original entry points are
resolved exactly once and everything falls back to them whenever a request
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

Thread exit needs no separate patch: a ``SystemExit`` raised inside a
managed worker (what ``_thread.exit()`` raises) is absorbed by the dispatch
loop as a logical exit, and terminates the thread for real everywhere else.

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


class _RealSymbols:
    """Original platform entry points, resolved once at first install."""
    thread_cls = None
    start_new_thread = None
    resolved = False


_real = _RealSymbols()
_install_lock = threading.Lock()
_installed = False
_runtime: Optional[ThreadCache] = None


def _resolve_once():
    if not _real.resolved:
        _real.thread_cls = threading.Thread
        _real.start_new_thread = _thread.start_new_thread
        _real.resolved = True


_resolve_once()  # imported before any patching can occur


def _cache_eligible(rt: Optional[ThreadCache]) -> bool:
    return (rt is not None and rt.enabled and not rt.closed
            and threading.stack_size() == 0)


class CachedThread(_real.thread_cls):
    """threading.Thread lookalike whose start() runs on a recycled worker."""

    _cache_handle = None  # the runtime handle once started on a worker

    def start(self):
        rt = _runtime
        if not self._initialized:
            raise RuntimeError("thread.__init__() not called")
        if self._cache_handle is not None or self._started.is_set():
            raise RuntimeError("threads can only be started once")
        if not _cache_eligible(rt):
            return _real.thread_cls.start(self)
        handle = rt.spawn(self._cache_body)
        self._cache_handle = handle
        self._ident = handle.worker_ident
        self._started.set()

    def _cache_body(self):
        self._ident = threading.get_ident()
        try:
            self.run()
        except SystemExit:
            pass
        except BaseException:
            args = threading.ExceptHookArgs(
                (*sys.exc_info(), self))
            try:
                threading.excepthook(args)
            except Exception:
                pass

    def join(self, timeout=None):
        handle = self._cache_handle
        if handle is None:
            return _real.thread_cls.join(self, timeout)
        if current_task() is handle:
            raise RuntimeError("cannot join current thread")
        handle.wait(timeout)

    def is_alive(self):
        handle = self._cache_handle
        if handle is None:
            return _real.thread_cls.is_alive(self)
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
        return _real.start_new_thread(function, args, kwargs)

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
    return handle.worker_ident


def install(runtime: Optional[ThreadCache] = None):
    """Activate the interposition; idempotent, reentrancy-safe."""
    global _installed, _runtime
    with _install_lock:
        _resolve_once()
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
            threading.Thread = _real.thread_cls
            _thread.start_new_thread = _real.start_new_thread
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
