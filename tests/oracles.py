"""Independent reference models used to check the live implementations.

These deliberately share no code with the package: the stack model is a
plain Python list, and the policy simulator replays event scripts against
scalar state. Keep them dumb.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from threadcache.retention import Policy, RetentionConfig


class ReferenceStack:
    """Plain-list LIFO used to validate sequential store histories."""

    def __init__(self):
        self.items = []

    def push(self, x):
        self.items.append(x)

    def pop(self):
        return self.items.pop() if self.items else None

    def cull_oldest(self, k):
        taken, self.items = self.items[:k], self.items[k:]
        return taken


@dataclass
class SimEvent:
    kind: str          # 'exit' | 'spawn' | 'tick'
    t: int             # virtual monotonic time, ns


@dataclass
class SimOutcome:
    kind: str
    # 'exit': admitted tag or None, evicted tags oldest-first
    # 'spawn': reused tag or None (physical create)
    # 'tick': culled tags oldest-first
    admitted: Optional[int] = None
    evicted: List[int] = field(default_factory=list)
    reused: Optional[int] = None
    culled: List[int] = field(default_factory=list)


class PolicySimulator:
    """Brute-force scalar model of the idle list under one retention policy.

    State is a list of (tag, idle_since) with the newest entry last. The
    arithmetic mirrors the production definitions exactly (integral summed
    in ns, divided once by 1e9).
    """

    def __init__(self, cfg: RetentionConfig):
        self.cfg = cfg
        self.idle: List[Tuple[int, int]] = []
        self._next_tag = 0

    def _integral(self, now: int) -> float:
        return sum(now - since for _, since in self.idle) / 1e9

    def step(self, ev: SimEvent) -> SimOutcome:
        cfg = self.cfg
        if ev.kind == "spawn":
            if self.idle:
                tag, _ = self.idle.pop()
                return SimOutcome("spawn", reused=tag)
            return SimOutcome("spawn", reused=None)
        if ev.kind == "exit":
            tag = self._next_tag
            self._next_tag += 1
            if cfg.policy is Policy.CLAMP:
                if cfg.clamp_size == 0:
                    return SimOutcome("exit", admitted=None)
                overflow = len(self.idle) + 1 - cfg.clamp_size
                if overflow > 0:
                    evicted = [t for t, _ in self.idle[:overflow]]
                    self.idle = self.idle[overflow:]
                    self.idle.append((tag, ev.t))
                    return SimOutcome("exit", admitted=tag, evicted=evicted)
            self.idle.append((tag, ev.t))
            return SimOutcome("exit", admitted=tag)
        if ev.kind == "tick":
            culled = []
            if cfg.policy is Policy.AGE_OUT:
                cutoff = ev.t - int(cfg.max_idle_age * 1e9)
                keep = []
                for tag, since in self.idle:  # oldest..newest order
                    if since < cutoff:
                        culled.append(tag)
                    else:
                        keep.append((tag, since))
                self.idle = keep
            elif cfg.policy is Policy.INTEGRAL_BUDGET:
                while self._integral(ev.t) > cfg.budget and self.idle:
                    tag, _ = self.idle.pop(0)
                    culled.append(tag)
            return SimOutcome("tick", culled=culled)
        raise ValueError(ev.kind)
