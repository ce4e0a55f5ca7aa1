#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in alternating pairs.

    git worktree add ../parent HEAD~1
    python3 scripts/bench_pairs.py ../parent . --pairs 10 --seconds 30

For each workload, pair i runs the benchmark command of the second
tree's BENCHMARK.json (``perfbench/run.py``) once in each tree with seed
``--seed + i`` and the same ``--seconds``; the first tree runs first in
even pairs, the second in odd ones. For every end-to-end metric the report gives each side's median
and quartiles, the change of the medians, and in how many pairs the
second tree did better (ties count for neither side). A metric is flagged

* ``WORSE``      when the second tree's median is worse than the first's
  by more than the metric's bound in BENCHMARK.json,
* ``GAIN``       when, over at least ten pairs, the second tree won at
  least nine in ten and the medians differ by more than the first tree's
  quartile spread,
* ``unresolved`` when the first tree's own quartile spread exceeds the
  bound, so a move of the size of the bound could not be told from noise;
  next to ``WORSE`` it marks a verdict that rests on that noise.

With ``--trace 1`` the runs are traced and the per-layer metrics are
compared the same way, without bounds. The exit code is 1 when any run
failed or any metric is flagged WORSE. Nothing under either tree is
written apart from what the benchmark itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600


def load_benchmark(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def run_once(tree: str, command, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One benchmark run in tree; returns its final JSON object."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    res["exit_code"] = proc.returncode
    if proc.returncode != 0:
        res["correct"] = False
        res["stderr"] = proc.stderr.strip()[-500:]
    return res


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, base, change) -> dict:
    """Summary of one metric over paired runs (base[i] pairs change[i])."""
    lower = metric.get("better", "lower") == "lower"
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    worse_by = ((cmed - bmed) if lower else (bmed - cmed)) / bmed \
        if bmed else 0.0
    spread = bq3 - bq1
    bound = metric.get("bound")
    flags = []
    if bound is not None and worse_by > bound:
        flags.append("WORSE")
    if len(base) >= 10 and wins >= 0.9 * len(base) \
            and -worse_by * bmed > spread:
        flags.append("GAIN")
    if bound is not None and bmed and spread / bmed > bound:
        flags.append("unresolved")
    return {"name": metric["name"], "unit": metric.get("unit", ""),
            "base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
            "delta_pct": (cmed - bmed) / bmed * 100 if bmed else 0.0,
            "wins": wins, "pairs": len(base), "flags": flags}


def report(workload: str, rows, failures: int):
    print(f"\n== {workload}: {rows[0]['pairs'] if rows else 0} pairs, "
          f"{failures} failed runs")
    print(f"{'metric':<30} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  flags")
    for r in rows:
        b, c = (f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
                for q1, med, q3 in (r["base"], r["change"]))
        print(f"{r['name'] + ' (' + r['unit'] + ')':<30} {b:>30} {c:>30} "
              f"{r['delta_pct']:>+7.1f}% {r['wins']:>2}/{r['pairs']:<3}  "
              f"{' '.join(r['flags'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="source tree measured first in even pairs")
    ap.add_argument("change", help="source tree compared against base")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", dest="out", default=None,
                    help="also write every run and the summary here")
    a = ap.parse_args(argv)
    if a.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = load_benchmark(os.path.join(a.change, "BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    workloads = (a.workloads.split(",") if a.workloads else
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer"] if a.trace else \
        bench["end_to_end"] + [{"name": "error_rate", "unit": "ratio",
                                "better": "lower"}]
    trees = {"base": a.base, "change": a.change}  # recorded as given

    runs, summary, bad = {}, {}, False
    for wl in workloads:
        per = {"base": [], "change": []}
        for i in range(a.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res = run_once(trees[side], bench["command"], wl,
                               a.seed + i, seconds, a.trace)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                if res.get("attempted"):
                    m["error_rate"] = res["failed"] / res["attempted"]
                res["values"] = m
                per[side].append(res)
                lat = m.get("latency_us.p50")
                print(f"{wl} pair {i} {side} seed {a.seed + i}: "
                      f"correct={res['correct']}"
                      + (f" latency_us.p50={lat:.4g}" if lat else ""),
                      file=sys.stderr, flush=True)
        failures = sum(not r["correct"] for s in per.values() for r in s)
        ok_pairs = [(b["values"], c["values"])
                    for b, c in zip(per["base"], per["change"])
                    if b["correct"] and c["correct"]]
        rows = []
        for metric in metrics:
            name = metric["name"]
            pairs = [(b[name], c[name]) for b, c in ok_pairs
                     if name in b and name in c]
            if pairs:
                rows.append(compare(metric, [p[0] for p in pairs],
                                    [p[1] for p in pairs]))
        report(wl, rows, failures)
        bad = bad or failures > 0 or any("WORSE" in r["flags"] for r in rows)
        runs[wl] = per
        summary[wl] = {"failed_runs": failures, "metrics": rows}
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"trees": trees, "seconds": seconds, "pairs": a.pairs,
                       "seed": a.seed, "trace": a.trace, "summary": summary,
                       "runs": runs}, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
