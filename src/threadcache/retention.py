"""Retention policies for the idle-worker cache.

Four policies decide which idle workers are kept:

* ``UNBOUNDED``  — cache every logically terminated worker.
* ``CLAMP``      — cap the idle depth at ``clamp_size``: the incoming
  (warmest) worker is admitted and the coldest is evicted. The store
  applies the clamp inside its locked push, so it is exact under
  concurrent exits; a store clamped to 0 keeps nothing and is born closed.
* ``AGE_OUT``    — admit everything; a periodic reap culls workers idle
  longer than ``max_idle_age`` seconds.
* ``INTEGRAL_BUDGET`` — admit everything; reap culls oldest-first until the
  thread-seconds integral of the idle list drops to ``budget``.

Only the two reaping policies give their store a timer, its oldest idle
worker, to run passes. An idle worker holds nothing but its OS thread, whose
stack the thread library keeps for reuse by a new thread once it exits.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import List, Mapping, Optional

_NS = 1_000_000_000


class Policy(enum.Enum):
    UNBOUNDED = "unbounded"
    CLAMP = "clamp"
    AGE_OUT = "age"
    INTEGRAL_BUDGET = "integral"


@dataclass
class RetentionConfig:
    policy: Policy = Policy.UNBOUNDED
    clamp_size: int = 8              # CLAMP only
    max_idle_age: float = 30.0       # seconds, AGE_OUT only
    budget: float = 60.0             # thread-seconds, INTEGRAL_BUDGET only
    reap_period: float = 1.0         # seconds, maintenance cadence

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


def admit(depth: int, cfg: RetentionConfig) -> int:
    """How many of the oldest idle workers CLAMP evicts so that one more,
    the warmest, joins a store holding ``depth``. AGE_OUT and
    INTEGRAL_BUDGET cull in reap; a clamp of 0 never asks: its store is
    closed."""
    if cfg.policy is not Policy.CLAMP:
        return 0
    return max(0, depth + 1 - cfg.clamp_size)


def reap(store, now: int, cfg: RetentionConfig) -> List:
    """Periodic cull pass; returns the workers removed (oldest first).

    `now` is frozen for the whole pass: age and integral checks all use the
    same instant, so a pass terminates and its post-state is well defined.
    """
    pol = cfg.policy
    if pol is Policy.AGE_OUT:
        return store.cull_older_than(now - int(cfg.max_idle_age * _NS))
    if pol is Policy.INTEGRAL_BUDGET:
        if store.integral(now) <= cfg.budget:  # the usual pass
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
