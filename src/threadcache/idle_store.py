"""LIFO store of idle workers: one lock over a list kept oldest-first.

push applies the retention clamp, stamps ``idle_since`` (monotonic ns) and
appends, all under the lock; pop takes the newest from the end, and the
culls slice from the front. The lock also guards the exact peak depth and
the count of successful pops (the runtime's cache hits). A retention pass
sums the stamps when it runs, so the hit path keeps no running total.
``close`` drains the store; a closed store hands every later pusher back to
exit, and is how a runtime keeps nothing, whether it was shut down, built
uncached, clamped to 0 or forked from a task.

Under a reaping policy the front (oldest) worker is the ``timer``, read
from the list itself: a worker pushed onto an empty store becomes it and
leaves the role only by leaving the store. The timer parks for ``period``
seconds at a time and then calls ``run_pass``: one hold of the lock checks
that it is still the front, culls the k oldest that ``retention.to_cull``
counts, and keeps a culled timer at the front.

The paper's CAS push and per-CPU shards are not reproduced: under the
GIL an emulated CAS is itself a lock, and shards only add work.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import List, Optional, Sequence

from . import retention as _retention
from .retention import Policy, RetentionConfig


class IdleStore:
    """Idle workers, oldest first; every operation takes the one lock."""

    def __init__(self, retention: Optional[RetentionConfig] = None):
        cfg = retention if retention is not None else RetentionConfig()
        self._retention = cfg
        # the depth at which a push must ask the policy; only CLAMP has one
        self._clamp = cfg.clamp_size if cfg.policy is Policy.CLAMP \
            else sys.maxsize
        self._lock = threading.Lock()
        self._items: List = []
        self._peak = 0
        self._pops = 0
        self._closed = self._clamp == 0  # a clamp of 0 keeps nothing
        self._timed = cfg.policy in (Policy.AGE_OUT, Policy.INTEGRAL_BUDGET)
        # seconds the timer parks between passes; a longer lock wait raises
        self.period = min(cfg.reap_period, threading.TIMEOUT_MAX)

    # push and pop run on every cache hit, so they call acquire/release
    # directly: about half the cost of a ``with`` block on CPython 3.11
    def push(self, worker) -> Sequence:
        """Stamp and publish worker; returns the workers that must exit: the
        oldest, evicted to make room for it, or worker itself when the store
        is closed and refuses it."""
        lock = self._lock
        lock.acquire()
        try:
            if self._closed:
                return (worker,)
            items = self._items
            evicted = ()  # one shared constant: no allocation
            if len(items) >= self._clamp:
                evicted = self._take_front(
                    _retention.admit(len(items), self._retention))
            worker.idle_since = time.monotonic_ns()
            items.append(worker)
            if len(items) > self._peak:
                self._peak = len(items)
            return evicted
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
            self._pops += 1
            return w
        finally:
            lock.release()

    def _take_front(self, k: int) -> List:  # caller holds the lock
        out = self._items[:k]
        del self._items[:k]
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

    def after_fork(self):
        """In a forked child: forget the stored workers, which did not fork,
        keeping the pop count and peak."""
        self._lock._at_fork_reinit()
        self._items.clear()

    def run_pass(self, worker, now: int) -> List:
        """The retention pass at now, if worker is the timer; returns the
        workers that must exit. A culled timer keeps the front with the
        stamp of the first survivor, which exits instead."""
        with self._lock:
            items = self._items
            if not items or items[0] is not worker:
                return []
            k = _retention.to_cull(items, now, self._retention)
            if 0 < k < len(items):
                worker.idle_since = items[k].idle_since
                items[0], items[k] = items[k], worker
            return self._take_front(k)

    def integral(self, now: int) -> float:
        """Sum of idle ages of the stored workers at now, in thread-seconds;
        one pass over the store under its lock."""
        with self._lock:
            return sum(now - w.idle_since for w in self._items) / 1e9

    def snapshot(self) -> List:
        """Stored workers newest-first, from one consistent pass."""
        with self._lock:
            return self._items[::-1]

    @property
    def timer(self):
        """The front (oldest) worker of a timed store, which runs its
        passes; None when the store is empty or its policy does not reap."""
        front = self._items[:1]  # one read: a pop may empty the list
        return front[0] if front and self._timed else None

    @property
    def closed(self) -> bool:  # refuses every push
        return self._closed

    @property
    def count(self) -> int:
        return len(self._items)

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def pops(self) -> int:  # successful pops since creation
        return self._pops
