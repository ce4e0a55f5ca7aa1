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
from time import perf_counter_ns

BLOCKS = 200  # timed blocks, after one dropped warm-up block
CHURN_OPS = 2000  # cached spawn+joins (and ping-pongs) per block
PHYSICAL_OPS = 300  # uncached spawn+joins (and Thread starts) per block
SHIM_OPS = 1000  # shimmed Thread start+joins per block


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


def summary(vals) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="source tree compared against")
    ap.add_argument("change", help="source tree measured against base")
    ap.add_argument("--json", dest="out", default=None,
                    help="also write every block and the summary here")
    a = ap.parse_args(argv)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # before any thread: they inherit it

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

    print(f"{len(rows)} blocks on CPU {cpu}; medians [q1, q3]")
    for key, v in out.items():
        wins = f"  change won {v['wins']}/{v['blocks']}" if "wins" in v \
            else ""
        print(f"{key:<32} {v['median']:9.4g} [{v['q1']:.4g}, {v['q3']:.4g}]"
              f"{wins}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"trees": {"base": a.base, "change": a.change},
                       "blocks": BLOCKS, "churn_ops": CHURN_OPS,
                       "physical_ops": PHYSICAL_OPS, "shim_ops": SHIM_OPS,
                       "cpu": cpu,
                       "python": sys.version.split()[0], "summary": out,
                       "rows": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
