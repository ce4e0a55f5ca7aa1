"""LIFO store of idle workers: one lock over a list kept oldest-first.

push stamps ``idle_since`` (monotonic ns) under the lock and appends, pop
takes the newest from the end, and the culls slice from the front. The
lock also guards a running sum of the stamps (an O(1) idle integral), the
exact peak depth and the count of successful pops (the runtime's cache
hits). ``close`` drains the store and refuses every later push.

The paper's CAS push and per-CPU shards are not reproduced: under the
GIL an emulated CAS is itself a lock, and shards only add work.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional


class IdleStore:
    """Idle workers, oldest first; every operation takes the one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._items: List = []
        self._stamp_sum = 0
        self._peak = 0
        self._pops = 0
        self._closed = False

    # push and pop run on every cache hit, so they call acquire/release
    # directly: about half the cost of a ``with`` block on CPython 3.11
    def push(self, worker, now: Optional[int] = None) -> bool:
        """Stamp and publish worker; False (and not stored) once closed."""
        lock = self._lock
        lock.acquire()
        try:
            if self._closed:
                return False
            if now is None:
                now = time.monotonic_ns()
            worker.idle_since = now
            items = self._items
            items.append(worker)
            self._stamp_sum += now
            if len(items) > self._peak:
                self._peak = len(items)
            return True
        finally:
            lock.release()

    def pop(self):
        """Remove and return the newest worker, or None when empty."""
        lock = self._lock
        lock.acquire()
        try:
            items = self._items
            if not items:
                return None
            w = items.pop()
            self._stamp_sum -= w.idle_since
            self._pops += 1
            return w
        finally:
            lock.release()

    def _take_front(self, k: int) -> List:  # caller holds the lock
        out = self._items[:k]
        del self._items[:k]
        self._stamp_sum -= sum(w.idle_since for w in out)
        return out

    def cull_oldest(self, k: int) -> List:
        """Remove up to k oldest workers; returns them oldest-first."""
        if k < 0:
            raise ValueError("k must be >= 0")
        with self._lock:
            return self._take_front(k)

    def cull_older_than(self, min_idle_since: int) -> List:
        """Remove every worker stamped before min_idle_since (a front run)."""
        with self._lock:
            k = 0
            for w in self._items:
                if w.idle_since >= min_idle_since:
                    break
                k += 1
            return self._take_front(k)

    def close(self) -> List:
        """Drain the store and refuse later pushes; returns the drained."""
        with self._lock:
            self._closed = True
            return self._take_front(len(self._items))

    def integral(self, now: Optional[int] = None) -> float:
        """Sum of idle ages of the stored workers, in thread-seconds."""
        if now is None:
            now = time.monotonic_ns()
        with self._lock:
            return (len(self._items) * now - self._stamp_sum) / 1e9

    def traverse_locked(self, fn: Callable):
        """Run fn(worker) for each stored worker, newest first, under the lock."""
        with self._lock:
            for w in reversed(self._items):
                fn(w)

    def snapshot(self) -> List:
        """Stored workers newest-first, from one consistent pass."""
        with self._lock:
            return self._items[::-1]

    @property
    def count(self) -> int:
        return len(self._items)

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def pops(self) -> int:  # successful pops since creation
        return self._pops
