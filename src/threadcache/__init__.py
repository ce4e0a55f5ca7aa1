"""threadcache: a user-space cache of idle OS threads.

Logically terminated threads are parked on a LIFO idle store and recycled
to serve later spawns, avoiding the kernel cost of creating and destroying
physical threads. Includes pluggable retention policies and a drop-in
``threading.Thread`` interposition shim.
"""

from .retention import Policy, RetentionConfig
from .runtime import (CacheStats, DeadlockError, JoinHandle, SpawnError,
                      TaskPoisoned, ThreadCache, UsageError, current_task,
                      logical_exit)

__all__ = [
    "CacheStats", "DeadlockError", "JoinHandle", "Policy", "RetentionConfig",
    "SpawnError", "TaskPoisoned", "ThreadCache", "UsageError",
    "current_task", "logical_exit",
]

__version__ = "0.1.0"
