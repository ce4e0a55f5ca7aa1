"""threadcache: a user-space cache of idle OS threads.

Logically terminated threads are parked on a LIFO idle store and recycled
to serve later spawns, avoiding the kernel cost of creating and destroying
physical threads. Includes pluggable retention policies, a drop-in
``threading.Thread`` interposition shim, and a benchmark harness.
"""

from .idle_store import IdleStore
from .retention import (AdmitDecision, Policy, RetentionConfig, Verdict,
                        admit, reap)
from .runtime import (CacheStats, DeadlockError, JoinHandle, SpawnError,
                      TaskPoisoned, ThreadCache, UsageError, Worker,
                      WorkerState, current_task, default_runtime,
                      logical_exit)

__all__ = [
    "AdmitDecision", "CacheStats", "DeadlockError", "IdleStore",
    "JoinHandle", "Policy", "RetentionConfig", "SpawnError", "TaskPoisoned",
    "ThreadCache", "UsageError", "Verdict", "Worker", "WorkerState",
    "admit", "current_task", "default_runtime", "logical_exit", "reap",
]

__version__ = "0.1.0"
