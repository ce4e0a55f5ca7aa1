#!/usr/bin/env python3
"""Compare two source trees in one process, in alternating blocks.

    git archive --prefix=parent/ HEAD~1 | tar -x -C ..
    python3 scripts/bench_interleaved.py ../parent . --json out.json

Both trees' ``src/threadcache`` packages are loaded side by side under two
package names (the package imports its own modules relatively), and the
process pins itself, and so every thread it starts, to the highest CPU it
may use, as ``perfbench/run.py`` does. Each block then times, with the two
trees in alternating order from block to block:

* ``churn``     cached spawn+join on a warm runtime, in each tree,
* ``physical``  spawn+join with caching disabled, in each tree,
* ``shim``      ``threading.Thread`` start+join through each tree's shim,
  installed on that tree's churn runtime for its turn only, of non-daemon
  threads (the default from the main thread),
* ``shim_daemon`` the same, of daemon threads,
* ``threading`` ``threading.Thread`` start+join (the stdlib's cold path),
* ``floor``     a raw two-lock ping-pong between two threads (the hand-off
  every cached spawn+join pays at least once).

A block's number is its mean per operation. Both trees see the same host
phase within a block, so the report rests on per-block ratios: for churn,
physical and the two shim rows, the median and quartiles of change ÷ base
and the blocks the change won; for each tree, physical ÷ threading and
churn ÷ floor.
The two shim rows differ in what a join does beyond the wait: a non-daemon
thread's stop lock is also added to, and pruned from, the locks that
interpreter exit waits on, as for a real ``Thread``.
Unlike ``bench_pairs.py`` this cannot see rss, thread counts or set-up
time, which need a process per run. Every join is checked; a wrong value
exits non-zero.

With ``--retention`` it times the retention pass instead. It loads the
change tree a second time, as its own ``self`` tree. Each block builds, in
each of the three trees in turn and alternating order, a runtime under
IntegralBudget with a ``REAP_PERIOD_S`` period, parks ``IDLE_WORKERS``
idle workers on it, and counts over a ``WINDOW_S`` sleep the passes that
enter that tree's ``retention.to_cull`` (wrapped through the module
attribute, as ``tests/conftest.py``'s ``counted_reap`` does) and the
process CPU. It then times cached spawn+joins on that runtime, and shuts it
down before the next tree's turn (its timer would share the CPU). It does
so under each of ``BUDGETS``: 1000 thread-s, whose passes cull nothing, and
1 thread-s, whose passes cull through the window. The report gives, under
each budget, passes per second, process CPU per pass and the spawn+join
mean, with quartiles: change ÷ base, and self ÷ change, whose spread is
the method's own noise, since both sides run the same code.

With ``--ladder`` it times one tree's cached spawn+join as a ladder of
cumulative rungs, each a minimal recycler that adds one cost to the rung
below it, with one worker thread per rung parked on its own lock:

    python3 scripts/bench_interleaved.py --ladder . --json ladder.json

0. the floor, the raw two-lock ping-pong;
1. a fresh per-task latch, allocated and acquired by the spawner, which
   the join waits on;
2. a bare list store: the worker pushes itself, the spawner pops it;
3. that store under a lock, with a pop count and a peak;
4. a slotted handle that carries the entry, its arg and its value, and the
   join's read of a ``threading.local``, as the runtime's ``_current``;
5. a ``time.monotonic_ns()`` stamp in the push;
6. the tree's own ``rt.spawn(f).join()`` on a warm Unbounded runtime.

Each block times every rung, in forward and reverse order in turn. The
report gives each rung's mean µs per operation, its increment over the
rung below it and both ÷ the floor of the same block, with quartiles.
"""

from __future__ import annotations

import _thread
import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import threading
import time
from time import perf_counter_ns

BLOCKS = 200  # timed blocks, after one dropped warm-up block
CHURN_OPS = 2000  # cached spawn+joins (and ping-pongs) per block
PHYSICAL_OPS = 300  # uncached spawn+joins (and Thread starts) per block
SHIM_OPS = 1000  # shimmed Thread start+joins per block
LADDER_OPS = 2000  # spawn+joins per rung per block of --ladder
RETENTION_BLOCKS = 40  # timed blocks of --retention
IDLE_WORKERS = 100  # idle workers parked for each --retention run
WINDOW_S = 1.0  # the sleep whose passes and CPU a --retention run counts
REAP_PERIOD_S = 0.01
# thread-s: 100 workers idle through a run (~1.1 s) stay far within the
# first; idle 10 ms, they exceed the second
BUDGETS = {"keep": 1000.0, "cull": 1.0}


def load_tree(tree: str, name: str):
    """The threadcache package of tree, imported as the package ``name``."""
    pkg = os.path.join(tree, "src", "threadcache")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def echo(i):
    return i


def spawn_join_block(rt, n: int) -> float:
    """Mean µs of n spawn+join round trips on rt."""
    spawn = rt.spawn
    t0 = perf_counter_ns()
    for i in range(n):
        if spawn(echo, i).join() != i:
            raise SystemExit("wrong join value")
    return (perf_counter_ns() - t0) / n / 1e3


def thread_block(n: int, daemon=None) -> float:
    """Mean µs of n threading.Thread start+join round trips."""
    Thread = threading.Thread
    ran = []
    t0 = perf_counter_ns()
    for i in range(n):
        t = Thread(target=ran.append, args=(i,), daemon=daemon)
        t.start()
        t.join()
    dt = perf_counter_ns() - t0
    if ran != list(range(n)):
        raise SystemExit("a thread did not run before its join returned")
    return dt / n / 1e3


class PingPong:
    """Two raw locks passed between this thread and a partner."""

    def __init__(self):
        self.ping, self.pong = _thread.allocate_lock(), _thread.allocate_lock()
        self.ping.acquire()
        self.pong.acquire()
        self.stop = False
        self.partner = threading.Thread(target=self._partner)
        self.partner.start()

    def _partner(self):
        ping, pong = self.ping, self.pong
        while True:
            ping.acquire()
            if self.stop:
                return
            pong.release()

    def block(self, n: int) -> float:
        """Mean µs of n round trips."""
        ping, pong = self.ping, self.pong
        t0 = perf_counter_ns()
        for _ in range(n):
            ping.release()
            pong.acquire()
        return (perf_counter_ns() - t0) / n / 1e3

    def close(self):
        self.stop = True
        self.ping.release()
        self.partner.join()


_PENDING = object()


class _LadderWorker:
    __slots__ = ("park", "task", "idle_since")

    def __init__(self):
        self.park = _thread.allocate_lock()
        self.park.acquire()
        self.task = None
        self.idle_since = 0


class _BareStore:
    """Rung 2: a list; append and pop are each atomic under the GIL."""

    def __init__(self):
        self.items = []

    def push(self, w):
        self.items.append(w)

    def pop(self):
        items = self.items
        return items.pop() if items else None


class _LockedStore(_BareStore):
    """Rung 3: the list under a lock, with a pop count and a peak."""

    def __init__(self):
        super().__init__()
        self.lock = _thread.allocate_lock()
        self.pops = self.peak = 0

    def push(self, w):
        lock = self.lock
        lock.acquire()
        items = self.items
        items.append(w)
        if len(items) > self.peak:
            self.peak = len(items)
        lock.release()

    def pop(self):
        lock = self.lock
        lock.acquire()
        items = self.items
        w = items.pop() if items else None
        if w is not None:
            self.pops += 1
        lock.release()
        return w


class _StampedStore(_LockedStore):
    """Rung 5: and a monotonic_ns stamp on every push."""

    def push(self, w):
        lock = self.lock
        lock.acquire()
        w.idle_since = time.monotonic_ns()
        items = self.items
        items.append(w)
        if len(items) > self.peak:
            self.peak = len(items)
        lock.release()


class _Current(threading.local):
    worker = None


_current = _Current()


class _Handle:
    """Rung 4: the task record a join waits on."""

    __slots__ = ("entry", "arg", "latch", "value", "worker")

    def __init__(self, entry, arg):
        lk = _thread.allocate_lock()
        lk.acquire()
        self.latch, self.entry, self.arg, self.value = lk, entry, arg, _PENDING

    def join(self):
        w = _current.worker
        if w is not None and w.task is self:
            raise SystemExit("a task joined itself")
        if self.value is _PENDING:
            lk = self.latch
            lk.acquire()
            lk.release()
        return self.value


def _latch_loop(w, store):  # rung 1's worker: no store
    park = w.park
    while True:
        park.acquire()
        lk = w.task
        if lk is None:
            return
        w.task = None
        lk.release()


def _store_loop(w, store):  # rungs 2 and 3
    park, push = w.park, store.push
    while True:
        push(w)
        park.acquire()
        lk = w.task
        if lk is None:
            return
        w.task = None
        lk.release()


def _handle_loop(w, store):  # rungs 4 and 5
    park, push = w.park, store.push
    _current.worker = w
    while True:
        push(w)
        park.acquire()
        h = w.task
        if h is None:
            return
        h.value = h.entry(h.arg)
        h.entry = h.arg = None
        w.task = None
        h.latch.release()


def _pop(store):
    """The parked worker; it may not have pushed itself yet."""
    w = store.pop()
    while w is None:
        time.sleep(0)
        w = store.pop()
    return w


class Rung:
    """One minimal recycler of the ladder: a worker thread and its store."""

    def __init__(self, loop, store):
        self.store, self.w = store, _LadderWorker()
        self.thread = threading.Thread(target=loop, args=(self.w, store))
        self.thread.start()
        if store is not None:
            self.store.push(_pop(store))  # once it has parked

    def latch_block(self, n: int) -> float:
        """Rung 1: mean µs of n hand-offs joined on a fresh latch each."""
        w, allocate = self.w, _thread.allocate_lock
        park = w.park
        t0 = perf_counter_ns()
        for _ in range(n):
            lk = allocate()
            lk.acquire()
            w.task = lk
            park.release()
            lk.acquire()
        return (perf_counter_ns() - t0) / n / 1e3

    def store_block(self, n: int) -> float:
        """Rungs 2 and 3: the same, with the worker popped from the store."""
        pop, allocate = self.store.pop, _thread.allocate_lock
        t0 = perf_counter_ns()
        for _ in range(n):
            lk = allocate()
            lk.acquire()
            w = pop()
            if w is None:
                w = _pop(self.store)
            w.task = lk
            w.park.release()
            lk.acquire()
        return (perf_counter_ns() - t0) / n / 1e3

    def handle_block(self, n: int) -> float:
        """Rungs 4 and 5: a handle per task, its value checked."""
        pop, Handle = self.store.pop, _Handle
        t0 = perf_counter_ns()
        for i in range(n):
            h = Handle(echo, i)
            w = pop()
            if w is None:
                w = _pop(self.store)
            h.worker = w
            w.task = h
            w.park.release()
            if h.join() != i:
                raise SystemExit("wrong join value")
        return (perf_counter_ns() - t0) / n / 1e3

    def close(self):
        w = self.w if self.store is None else _pop(self.store)
        w.task = None
        w.park.release()
        self.thread.join()


LADDER = ("floor", "latch", "bare_store", "locked_store", "handle",
          "stamp", "runtime")


def ladder_main(a, cpu: int) -> int:
    """The --ladder timing of a.base's spawn+join, rung by rung."""
    tc = load_tree(a.base, "threadcache_ladder")
    rt = tc.ThreadCache(enabled=True, retention=tc.RetentionConfig())
    pp = PingPong()
    rungs = [Rung(_latch_loop, None), Rung(_store_loop, _BareStore()),
             Rung(_store_loop, _LockedStore()),
             Rung(_handle_loop, _LockedStore()),
             Rung(_handle_loop, _StampedStore())]
    timers = dict(zip(LADDER, (
        pp.block, rungs[0].latch_block, rungs[1].store_block,
        rungs[2].store_block, rungs[3].handle_block, rungs[4].handle_block,
        lambda n: spawn_join_block(rt, n))))
    rows = []
    try:
        for b in range(BLOCKS + 1):  # block 0 warms up and is dropped
            row = {}
            for name in (LADDER if b % 2 else LADDER[::-1]):
                row[name] = timers[name](LADDER_OPS)
            if b:
                rows.append(row)
    finally:
        pp.close()
        for r in rungs:
            r.close()
        rt.shutdown()
    out = {}
    for k, name in enumerate(LADDER):
        key = f"{k}.{name}"
        out[f"{key}_us"] = summary([r[name] for r in rows])
        out[f"{key}.over_floor"] = summary([r[name] / r["floor"]
                                            for r in rows])
        if k:
            below = LADDER[k - 1]
            out[f"{key}.increment_us"] = summary(
                [r[name] - r[below] for r in rows])
            out[f"{key}.increment_over_floor"] = summary(
                [(r[name] - r[below]) / r["floor"] for r in rows])
    report(out, rows, cpu, a.out, {
        "tree": a.base, "mode": "ladder", "blocks": BLOCKS,
        "ops": LADDER_OPS, "rungs": list(LADDER)})
    return 0


def summary(vals) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def retention_run(tc, budget: float) -> dict:
    """Passes per second and process CPU per pass over an idle window, and
    the mean µs of cached spawn+joins, on a fresh IntegralBudget runtime of
    tc holding IDLE_WORKERS idle workers; and the workers culled meanwhile."""
    rt = tc.ThreadCache(enabled=True, retention=tc.RetentionConfig(
        policy=tc.Policy.INTEGRAL_BUDGET, budget=budget,
        reap_period=REAP_PERIOD_S))
    retention = importlib.import_module(f"{tc.__name__}.retention")
    orig, items, passes = retention.to_cull, rt._store._items, [0]

    def to_cull(its, now, cfg):
        if its is items:
            passes[0] += 1
        return orig(its, now, cfg)

    retention.to_cull = to_cull
    try:
        go = threading.Event()
        hs = [rt.spawn(go.wait, 5.0) for _ in range(IDLE_WORKERS)]
        go.set()
        if not all(h.join() for h in hs):
            raise SystemExit("a worker was not let go")
        while True:  # until every live worker is parked
            st = rt.stats()
            if st.current_idle == st.physical_creates - st.physical_culls:
                break
            time.sleep(0.001)
        n0, c0, t0 = passes[0], time.process_time_ns(), perf_counter_ns()
        time.sleep(WINDOW_S)
        cpu, dt = time.process_time_ns() - c0, perf_counter_ns() - t0
        n = passes[0] - n0
        if not n:
            raise SystemExit("no retention pass in the window")
        us = spawn_join_block(rt, CHURN_OPS)
        return {"passes_per_s": n / dt * 1e9, "cpu_us_per_pass": cpu / n / 1e3,
                "spawn_join_us": us, "culled": rt.stats().physical_culls}
    finally:
        retention.to_cull = orig
        rt.shutdown()


def retention_main(a, cpu: int) -> int:
    """The --retention comparison of a.base, a.change and a.change again."""
    sides = ("base", "change", "self")
    tc = {s: load_tree(t, f"threadcache_{s}")
          for s, t in zip(sides, (a.base, a.change, a.change))}
    rows = []
    for b in range(RETENTION_BLOCKS + 1):  # block 0 warms up, dropped
        row = {}
        for s in (sides if b % 2 else sides[::-1]):
            for name, budget in BUDGETS.items():
                for k, v in retention_run(tc[s], budget).items():
                    row[f"{s}.{name}.{k}"] = v
        if b:
            rows.append(row)
    out = {}
    for name in BUDGETS:
        for k in ("passes_per_s", "cpu_us_per_pass", "spawn_join_us"):
            for num, den in (("change", "base"), ("self", "change")):
                ratios = [r[f"{num}.{name}.{k}"] / r[f"{den}.{name}.{k}"]
                          for r in rows]
                out[f"{name}.{k}.{num}_over_{den}"] = {
                    **summary(ratios), "wins": sum(x < 1 for x in ratios),
                    "blocks": len(rows)}
            for s in sides[:2]:
                out[f"{s}.{name}.{k}"] = summary(
                    [r[f"{s}.{name}.{k}"] for r in rows])
        for s in sides[:2]:
            out[f"{s}.{name}.culled"] = summary(
                [r[f"{s}.{name}.culled"] for r in rows])
    report(out, rows, cpu, a.out, {
        "trees": {"base": a.base, "change": a.change, "self": a.change},
        "mode": "retention", "blocks": RETENTION_BLOCKS,
        "idle_workers": IDLE_WORKERS, "window_s": WINDOW_S,
        "budgets": BUDGETS, "reap_period": REAP_PERIOD_S,
        "spawn_join_ops": CHURN_OPS})
    return 0


def report(out: dict, rows, cpu: int, path, meta: dict):
    """Print the summary; with path, also write it, meta and every row."""
    print(f"{len(rows)} blocks on CPU {cpu}; medians [q1, q3]")
    for key, v in out.items():
        wins = f"  below 1 in {v['wins']}/{v['blocks']}" if "wins" in v \
            else ""
        print(f"{key:<40} {v['median']:9.4g} [{v['q1']:.4g}, {v['q3']:.4g}]"
              f"{wins}")
    if path:
        with open(path, "w") as f:
            json.dump({**meta, "cpu": cpu, "python": sys.version.split()[0],
                       "summary": out, "rows": rows}, f, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="source tree compared against; with "
                    "--ladder, the one tree timed")
    ap.add_argument("change", nargs="?",
                    help="source tree measured against base")
    ap.add_argument("--json", dest="out", default=None,
                    help="also write every block and the summary here")
    ap.add_argument("--retention", action="store_true",
                    help="time retention passes on idle workers instead")
    ap.add_argument("--ladder", action="store_true",
                    help="time one tree's spawn+join rung by rung instead")
    a = ap.parse_args(argv)
    if (a.change is None) != a.ladder:
        ap.error("--ladder takes one tree; the other modes take two")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # before any thread: they inherit it
    if a.retention:
        return retention_main(a, cpu)
    if a.ladder:
        return ladder_main(a, cpu)

    sides = ("base", "change")
    tc = {s: load_tree(t, f"threadcache_{s}")
          for s, t in zip(sides, (a.base, a.change))}
    shims = {s: importlib.import_module(f"threadcache_{s}.shim")
             for s in sides}
    rts = {(s, wl): tc[s].ThreadCache(enabled=(wl == "churn"),
                                      retention=tc[s].RetentionConfig())
           for s in sides for wl in ("churn", "physical")}
    ops = {"churn": CHURN_OPS, "physical": PHYSICAL_OPS}
    pp = PingPong()
    rows = []
    try:
        for b in range(BLOCKS + 1):  # block 0 warms up and is dropped
            row = {}
            for s in (sides if b % 2 else sides[::-1]):
                for wl in ("churn", "physical"):
                    row[f"{s}.{wl}"] = spawn_join_block(rts[s, wl], ops[wl])
                shims[s].install(rts[s, "churn"])
                try:
                    row[f"{s}.shim"] = thread_block(SHIM_OPS)
                    row[f"{s}.shim_daemon"] = thread_block(SHIM_OPS, True)
                finally:
                    shims[s].uninstall()
            row["threading"] = thread_block(PHYSICAL_OPS)
            row["floor"] = pp.block(CHURN_OPS)
            if b:
                rows.append(row)
    finally:
        pp.close()
        for rt in rts.values():
            rt.shutdown()

    out = {}
    for wl in ("churn", "physical", "shim", "shim_daemon"):
        ratios = [r[f"change.{wl}"] / r[f"base.{wl}"] for r in rows]
        out[f"{wl}.change_over_base"] = {
            **summary(ratios), "wins": sum(x < 1 for x in ratios),
            "blocks": len(rows)}
    for s in sides:
        out[f"{s}.physical_over_threading"] = summary(
            [r[f"{s}.physical"] / r["threading"] for r in rows])
        out[f"{s}.churn_over_floor"] = summary(
            [r[f"{s}.churn"] / r["floor"] for r in rows])
    for key in ("base.churn", "change.churn", "base.physical",
                "change.physical", "base.shim", "change.shim",
                "base.shim_daemon", "change.shim_daemon", "threading",
                "floor"):
        out[f"{key}_us"] = summary([r[key] for r in rows])

    report(out, rows, cpu, a.out, {
        "trees": {"base": a.base, "change": a.change}, "blocks": BLOCKS,
        "churn_ops": CHURN_OPS, "physical_ops": PHYSICAL_OPS,
        "shim_ops": SHIM_OPS})
    return 0


if __name__ == "__main__":
    sys.exit(main())
