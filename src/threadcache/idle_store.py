"""LIFO store of idle workers, kept oldest-first in a list.

Under Unbounded, the default, push and pop take no lock: ``list.append``
and ``list.pop`` are atomic under the GIL, as a Treiber stack's push is one
CAS. Push stamps nothing, and locks only to raise the peak, which thus never
falls and is exact unless a push or pop races the push that reaches it. The
other policies' push and pop hold the lock, to clamp, stamp ``idle_since``
(monotonic ns) and keep the exact peak. ``close`` drains by atomic
``pop(0)``s and refuses every later push: a runtime shut down, built
uncached, clamped to 0 or forked from a task keeps nothing.

Under a reaping policy the front (oldest) worker is the ``timer``, read
from the list itself: a worker pushed onto an empty store becomes it and
leaves the role only by leaving the store, so a parked worker's role never
changes and it reads the role once, as it parks. The timer parks for
``period`` seconds at a time and then calls ``run_pass``: one hold of the
lock checks that it is still the front, culls the k oldest that
``retention.to_cull`` counts, and keeps a culled timer at the front.
The paper's per-CPU shards are not reproduced: under the GIL they add work.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import List, Optional, Sequence

from . import retention as _retention
from .retention import Policy, RetentionConfig


class IdleStore:
    """Idle workers, oldest first; bare under Unbounded, else locked."""

    def __init__(self, retention: Optional[RetentionConfig] = None):
        cfg = retention if retention is not None else RetentionConfig()
        self._retention = cfg
        # the depth at which a push must ask the policy; only CLAMP has one
        self._clamp = cfg.clamp_size if cfg.policy is Policy.CLAMP \
            else sys.maxsize
        self._lock = threading.Lock()
        self._items: List = []
        self._peak = 0
        self._closed = self._clamp == 0  # a clamp of 0 keeps nothing
        self._bare = cfg.policy is Policy.UNBOUNDED
        self._timed = cfg.policy in (Policy.AGE_OUT, Policy.INTEGRAL_BUDGET)
        # seconds the timer parks between passes; a longer lock wait raises
        self.period = min(cfg.reap_period, threading.TIMEOUT_MAX)

    # the locked hit path calls acquire/release: half the cost of ``with``
    def push(self, worker) -> Sequence:
        """Publish worker; returns the workers that must exit: the oldest,
        evicted for it; worker, refused by a closed store; or, when the
        store closes during the push, what it then drains again."""
        if self._closed:  # a store never reopens: refuse without the lock
            return (worker,)
        items = self._items
        if self._bare:
            items.append(worker)
            if len(items) > self._peak:
                with self._lock:  # only a new peak: it never falls
                    self._peak = max(self._peak, len(items))
            # closed since: drain again; whoever took worker first wakes it
            return self.close() if self._closed else ()
        lock = self._lock
        lock.acquire()
        try:
            if self._closed:
                return (worker,)
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
        items = self._items
        if not items:  # a miss takes no lock and raises nothing
            return None
        if self._bare:
            try:
                return items.pop()
            except IndexError:  # a racing pop took the last
                return None
        lock = self._lock
        lock.acquire()
        try:
            return items.pop() if items else None
        finally:
            lock.release()

    def _take_front(self, k: int) -> List:  # caller holds the lock
        items, out = self._items, []
        try:  # atomic pop(0)s: a bare pop between a slice and a del would
            while len(out) < k:  # hand one worker to two owners
                out.append(items.pop(0))
        except IndexError:  # empty, maybe since a racing bare pop
            pass
        return out

    def cull_oldest(self, k: int) -> List:
        """Remove up to k oldest workers, returned oldest first. Only tests
        and the traced benchmark call it: it keeps no timer at the front."""
        if k < 0:
            raise ValueError("k must be >= 0")
        with self._lock:
            return self._take_front(k)

    def cull_older_than(self, min_idle_since: int) -> List:
        """Remove every worker stamped before min_idle_since (a front run).
        Only tests and the traced benchmark call it: it keeps no timer."""
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
            return self._take_front(sys.maxsize)

    def after_fork(self):
        """In a forked child: forget the stored workers, which did not fork,
        keeping the peak."""
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

