"""Retention policies for the idle-worker cache.

Four policies decide which idle workers are kept:

* ``UNBOUNDED``  — cache every logically terminated worker.
* ``CLAMP``      — cap the idle depth at ``clamp_size``; by default the
  incoming (warmest) worker is admitted and the coldest is evicted, an
  alternative refused-admission mode is available via ``keep_incoming``.
* ``AGE_OUT``    — admit everything; a periodic reap culls workers idle
  longer than ``max_idle_age`` seconds.
* ``INTEGRAL_BUDGET`` — admit everything; reap culls oldest-first until the
  thread-seconds integral of the idle list drops to ``budget``.

Only the two reaping policies need the runtime's background reaper. An idle
worker holds nothing but its OS thread; that thread's stack is the thread
library's, which keeps the stacks of exited threads for reuse by new ones.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import List, Mapping, Optional

_NS = 1_000_000_000


class Policy(enum.Enum):
    UNBOUNDED = "unbounded"
    CLAMP = "clamp"
    AGE_OUT = "age"
    INTEGRAL_BUDGET = "integral"


class Verdict(enum.Enum):
    CACHE = "cache"
    TERMINATE = "terminate"


@dataclass
class RetentionConfig:
    policy: Policy = Policy.UNBOUNDED
    clamp_size: int = 8              # CLAMP only
    max_idle_age: float = 30.0       # seconds, AGE_OUT only
    budget: float = 60.0             # thread-seconds, INTEGRAL_BUDGET only
    reap_period: float = 1.0         # seconds, maintenance cadence
    keep_incoming: bool = True       # CLAMP: evict oldest vs refuse incoming

    def __post_init__(self):
        if self.clamp_size < 0:
            raise ValueError("clamp_size must be >= 0")
        if self.max_idle_age <= 0:
            raise ValueError("max_idle_age must be > 0")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.reap_period <= 0:
            raise ValueError("reap_period must be > 0")

    @property
    def needs_reaper(self) -> bool:
        return self.policy in (Policy.AGE_OUT, Policy.INTEGRAL_BUDGET)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RetentionConfig":
        """Build a config from the THREADCACHE_* environment variables."""
        env = os.environ if environ is None else environ
        kw = {}
        name = env.get("THREADCACHE_POLICY")
        if name:
            try:
                kw["policy"] = Policy(name.strip().lower())
            except ValueError:
                raise ValueError(f"unknown THREADCACHE_POLICY {name!r}") from None
        if "THREADCACHE_CLAMP" in env:
            kw["clamp_size"] = int(env["THREADCACHE_CLAMP"])
        if "THREADCACHE_AGE_MS" in env:
            kw["max_idle_age"] = int(env["THREADCACHE_AGE_MS"]) / 1000.0
        if "THREADCACHE_BUDGET_MS" in env:
            # thread-milliseconds -> thread-seconds
            kw["budget"] = int(env["THREADCACHE_BUDGET_MS"]) / 1000.0
        if "THREADCACHE_REAP_MS" in env:
            kw["reap_period"] = int(env["THREADCACHE_REAP_MS"]) / 1000.0
        return cls(**kw)


@dataclass
class AdmitDecision:
    verdict: Verdict
    evictions: List = field(default_factory=list)

    def __post_init__(self):
        if self.evictions and self.verdict is not Verdict.CACHE:
            raise ValueError("evictions only accompany a CACHE verdict")


_CACHE = AdmitDecision(Verdict.CACHE)
_TERMINATE = AdmitDecision(Verdict.TERMINATE)


def admit(worker, store, now: int, cfg: RetentionConfig) -> AdmitDecision:
    """Per-exit decision for a worker that just finished a task.

    AGE_OUT and INTEGRAL_BUDGET always admit here; their culling happens in
    reap. CLAMP evicts the oldest cached worker(s) to make room for the
    incoming one (it carries the most residual cache/scheduling affinity),
    unless keep_incoming is off, in which case a full cache refuses it.
    """
    pol = cfg.policy
    if pol is Policy.CLAMP:
        clamp = cfg.clamp_size
        if clamp == 0:
            return _TERMINATE
        overflow = store.count + 1 - clamp
        if overflow <= 0:
            return _CACHE
        if not cfg.keep_incoming:
            return _TERMINATE
        return AdmitDecision(Verdict.CACHE, store.cull_oldest(overflow))
    return _CACHE


def reap(store, now: int, cfg: RetentionConfig) -> List:
    """Periodic cull pass; returns the workers removed (oldest first).

    `now` is frozen for the whole pass: age and integral checks all use the
    same instant, so a pass terminates and its post-state is well defined.
    """
    pol = cfg.policy
    if pol is Policy.AGE_OUT:
        return store.cull_older_than(now - int(cfg.max_idle_age * _NS))
    if pol is Policy.INTEGRAL_BUDGET:
        if store.integral(now) <= cfg.budget:  # O(1): the usual pass
            return []
        # one pass over one snapshot: count the oldest workers whose removal
        # brings the integral within budget, then cull them in one call.
        # Concurrent spawns pop only the newest, so the k oldest stay the
        # same workers unless the store drains meanwhile.
        snap = store.snapshot()  # newest first
        total_ns = len(snap) * now - sum(w.idle_since for w in snap)
        k = 0
        for w in reversed(snap):
            if total_ns / 1e9 <= cfg.budget:
                break
            total_ns -= now - w.idle_since
            k += 1
        return store.cull_oldest(k)
    return []
