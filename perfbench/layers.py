"""Span wrappers around threadcache's public entry points, and the
per-layer metrics computed from the spans they record.

Only the traced run calls ``install``. It swaps class and module attributes
for traced versions and returns a function that puts the originals back, so
no file of the package changes and untraced runs carry no wrapper.
"""

from __future__ import annotations

import _thread
import statistics
from collections import defaultdict

from spans import self_times


def _logical(args, result):
    return args[0].logical_id


def _spawned(args, result):
    return result.logical_id if result is not None else -1


def _found(args, result):
    return int(result is not None)


def _count(args, result):
    return len(result) if result is not None else 0


def install(tracer):
    """Wrap the entry points of every layer; returns the undo function."""
    from threadcache import idle_store, retention, runtime, shim
    targets = [
        (runtime.ThreadCache, "spawn", "ThreadCache.spawn", _spawned),
        (runtime.ThreadCache, "stats", "ThreadCache.stats", None),
        (runtime.JoinHandle, "__init__", "JoinHandle.__init__", None),
        (runtime.JoinHandle, "join", "JoinHandle.join", _logical),
        (runtime.JoinHandle, "wait", "JoinHandle.wait", _logical),
        (idle_store.IdleStore, "push", "IdleStore.push", None),
        (idle_store.IdleStore, "pop", "IdleStore.pop", _found),
        (idle_store.IdleStore, "cull_oldest", "IdleStore.cull_oldest", _count),
        (idle_store.IdleStore, "cull_older_than", "IdleStore.cull_older_than",
         _count),
        (idle_store.IdleStore, "integral", "IdleStore.integral", None),
        (retention, "admit", "retention.admit", None),
        (retention, "reap", "retention.reap", _count),
        (shim.CachedThread, "start", "CachedThread.start", None),
        (shim.CachedThread, "join", "CachedThread.join", None),
    ]
    if shim.installed():
        targets.append((_thread, "start_new_thread", "shim.start_new_thread",
                        None))
    saved = []
    for owner, attr, name, key in targets:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(name, orig, key))

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return undo


def traced_task(tracer, tc, fn):
    """fn stamped at entry and exit, keyed by the logical thread running it."""
    def key(args, result):
        task = tc.current_task()
        return task.logical_id if task is not None else -1
    return tracer.wrap("task", fn, key)


# name of each per-layer timing -> (span name, use self time, span filter)
_TIMINGS = {
    "runtime.spawn_us": ("ThreadCache.spawn", True, "hit"),
    "runtime.spawn_create_us": ("ThreadCache.spawn", True, "create"),
    "runtime.handle_init_us": ("JoinHandle.__init__", False, None),
    "runtime.stats_us": ("ThreadCache.stats", False, None),
    "idle_store.pop_us": ("IdleStore.pop", False, None),
    "idle_store.push_us": ("IdleStore.push", False, None),
    "idle_store.integral_us": ("IdleStore.integral", False, None),
    "idle_store.cull_us": (("IdleStore.cull_oldest",
                            "IdleStore.cull_older_than"), False, None),
    "retention.reap_us": ("retention.reap", False, None),
    "retention.admit_us": ("retention.admit", False, None),
    "shim.thread_start_us": ("CachedThread.start", True, None),
    "shim.thread_join_us": ("CachedThread.join", True, None),
    "shim.start_new_thread_us": ("shim.start_new_thread", True, None),
}


def _p50_us(values_ns):
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def analyze(rows):
    """Per-layer timings (µs) and sample counts from recorded spans.

    A timing with no span to measure reads 0 and its count says so.
    """
    selfs = self_times(rows)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for r in rows:
        by_name[r[1]].append(r)
        if r[5] >= 0:
            children[r[5]].append(r)

    def spawn_kind(span):
        for c in children.get(span[0], ()):
            if c[1] == "IdleStore.pop" and c[6] == 1:
                return "hit"
        return "create"

    out, counts = {}, {}
    for metric, (names, use_self, kind) in _TIMINGS.items():
        names = names if isinstance(names, tuple) else (names,)
        spans = [s for n in names for s in by_name.get(n, ())]
        if kind is not None:
            spans = [s for s in spans if spawn_kind(s) == kind]
        vals = [selfs[s[0]] if use_self else s[3] - s[2] for s in spans]
        out[metric + ".p50"] = _p50_us(vals)
        counts[metric] = len(vals)
        if metric == "retention.reap_us":
            out[metric + ".max"] = max(vals, default=0) / 1e3

    spawn_start = {s[6]: s[2] for s in by_name.get("ThreadCache.spawn", ())}
    task_span = {s[6]: s for s in by_name.get("task", ())}
    joined_end = {}
    for n in ("JoinHandle.join", "JoinHandle.wait"):
        for s in by_name.get(n, ()):
            joined_end[s[6]] = max(joined_end.get(s[6], 0), s[3])
    handoff = [t[2] - spawn_start[k] for k, t in task_span.items()
               if k in spawn_start]
    wake = [joined_end[k] - t[3] for k, t in task_span.items()
            if k in joined_end and joined_end[k] > t[3]]
    out["runtime.handoff_us.p50"] = _p50_us(handoff)
    out["runtime.wake_us.p50"] = _p50_us(wake)
    counts["runtime.handoff_us"] = len(handoff)
    counts["runtime.wake_us"] = len(wake)

    pops = by_name.get("IdleStore.pop", ())
    out["idle_store.pop_hit_rate"] = (sum(s[6] for s in pops) / len(pops)
                                      if pops else 0.0)
    out["retention.reap_culled"] = sum(s[6] for s in
                                       by_name.get("retention.reap", ()))
    return out, counts
