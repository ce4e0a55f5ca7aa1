"""Retention policies for the idle-worker cache.

Four policies decide which idle workers are kept:

* ``UNBOUNDED``  — cache every logically terminated worker.
* ``CLAMP``      — cap the idle depth at ``clamp_size``: the incoming
  (warmest) worker is admitted and the coldest is evicted. The store
  applies the clamp inside its locked push, so it is exact under
  concurrent exits; a store clamped to 0 keeps nothing and is born closed.
* ``AGE_OUT``    — admit everything; a periodic pass culls workers idle
  longer than ``max_idle_age`` seconds.
* ``INTEGRAL_BUDGET`` — admit everything; a pass culls oldest-first until
  the thread-seconds integral of the idle list drops to ``budget``.

Only the two reaping policies give their store a timer, its oldest idle
worker, which parks ``reap_period`` seconds before each pass. ``to_cull``
is a pass's arithmetic, a pure function of the stamps, ``now`` and the
config; the store applies it under its lock.
An idle worker holds nothing but its OS thread, whose stack the thread
library keeps for reuse by a new thread once it exits.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

_NS = 1_000_000_000


class Policy(enum.Enum):
    UNBOUNDED = "unbounded"
    CLAMP = "clamp"
    AGE_OUT = "age"
    INTEGRAL_BUDGET = "integral"


@dataclass(frozen=True)  # a store copies its policy, clamp and period once
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
    INTEGRAL_BUDGET cull in a pass; a clamp of 0 never asks: its store is
    closed."""
    if cfg.policy is not Policy.CLAMP:
        return 0
    return max(0, depth + 1 - cfg.clamp_size)


def to_cull(items: Sequence, now: int, cfg: RetentionConfig) -> int:
    """How many of the oldest idle workers a pass at ``now`` culls; items
    are the idle workers, oldest first. AGE_OUT counts the front run idle
    longer than ``max_idle_age``; INTEGRAL_BUDGET counts the oldest whose
    removal brings the integral within budget. The integral is summed in
    integer ns and divided once by 1e9 at each step."""
    pol, k = cfg.policy, 0
    if pol is Policy.AGE_OUT:
        cutoff = now - int(cfg.max_idle_age * _NS)
        while k < len(items) and items[k].idle_since < cutoff:
            k += 1
    elif pol is Policy.INTEGRAL_BUDGET:
        total_ns = len(items) * now - sum(w.idle_since for w in items)
        while k < len(items) and total_ns / 1e9 > cfg.budget:
            total_ns -= now - items[k].idle_since
            k += 1
    return k


def reap(store, now: int, cfg: RetentionConfig) -> List:
    """One cull of store under cfg at ``now``, in one hold of its lock;
    returns the workers removed (oldest first). Only tests and the traced
    benchmark call it: on a timed store it takes the front without keeping
    a timer. The timer's own pass is ``IdleStore.run_pass``."""
    with store._lock:
        return store._take_front(to_cull(store._items, now, cfg))
