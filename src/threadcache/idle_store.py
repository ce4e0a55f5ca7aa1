"""LIFO store of idle workers: one lock over a list kept oldest-first.

push applies the retention clamp, stamps ``idle_since`` (monotonic ns) and
appends, all under the lock; pop takes the newest from the end, and the
culls slice from the front. The lock also guards the exact peak depth and
the count of successful pops (the runtime's cache hits). A retention pass
sums the stamps when it runs, so the hit path keeps no running total.
``close`` drains the store; a closed store hands every later pusher back to
exit, and is how a runtime keeps nothing, whether it was shut down, built
uncached, clamped to 0 or forked from a task.

Under a reaping policy the front (oldest) worker is the ``timer``: a push
onto an empty store claims the role, and the pop of the last worker clears
it. The timer parks until ``due``, then calls ``run_pass``: one hold of the
lock checks that it is still the timer and due, culls the k oldest that
``retention.to_cull`` counts, and keeps a culled timer at the front.

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
        self._timed = cfg.needs_reaper  # whether the front times the passes
        self.timer = None  # the front worker, when the store is timed
        self._period = int(  # a park may wait at most TIMEOUT_MAX
            min(cfg.reap_period, threading.TIMEOUT_MAX) * 1e9)
        self.due = time.monotonic_ns() + self._period  # the next pass, in ns

    # push and pop run on every cache hit, so they call acquire/release
    # directly: about half the cost of a ``with`` block on CPython 3.11
    def push(self, worker, now: Optional[int] = None) -> Sequence:
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
            elif self._timed and not items:
                self.timer = worker
            if now is None:
                now = time.monotonic_ns()
            worker.idle_since = now
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
            if w is self.timer:  # the last worker
                self.timer = None
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
            self.timer = None
            return self._take_front(len(self._items))

    def after_fork(self):
        """In a forked child: forget the stored workers, which did not fork,
        keeping the pop count and peak."""
        self._lock._at_fork_reinit()
        self._items.clear()
        self.timer = None

    def run_pass(self, worker, now: int) -> List:
        """The retention pass, if worker is still the timer and it is due at
        now; returns the workers that must exit. A culled timer keeps the
        front with the stamp of the first survivor, which exits instead."""
        with self._lock:
            if worker is not self.timer or now < self.due:
                return []
            self.due = now + self._period
            items = self._items  # the timer is items[0]
            k = _retention.to_cull(items, now, self._retention)
            if k == len(items):
                self.timer = None
            elif k:
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
