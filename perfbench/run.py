#!/usr/bin/env python3
"""threadcache benchmark: one workload per invocation.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the package is imported from its
``src/``). Every workload process is pinned to one CPU, the last one this
process may use, under SCHED_BATCH and with a fixed hash seed; filler.py
keeps that CPU from idling while the run lasts.

--trace 0  end-to-end metrics: set-up time (median over several fresh
           processes), latency percentiles, throughput, CPU per operation,
           peak RSS and the mean thread count, all measured untraced.
           churn also prints stdlib reference rows, which are not gated.
--trace 1  per-layer metrics from a run whose layer entry points are
           wrapped in spans; the spans are written to perfbench/out/.

Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
when every operation and every counter check was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

SETUP_PROBES = 6     # extra processes that only set up, for setup_s
RUN_BUDGET_S = 170   # children still running after this are killed

# metric -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "latency_us.p50": "us",
    "latency_us.p90": "us",
    "throughput_ops": "1/s",
    "cpu_us_per_op": "us",
    "rss_mb.peak": "MB",
    "threads.mean": "count",
}
REPORTED = {  # printed with the end-to-end metrics, not gated
    "latency_us.p99": "us",
    "latency_us.samples": "count",
    "idle_workers.mean": "count",
    "error_rate": "ratio",
}
PER_LAYER = {
    "runtime.spawn_us.p50": "us",
    "runtime.spawn_create_us.p50": "us",
    "runtime.handle_init_us.p50": "us",
    "runtime.handoff_us.p50": "us",
    "runtime.wake_us.p50": "us",
    "runtime.stats_us.p50": "us",
    "runtime.spawns": "count",
    "runtime.cache_hits": "count",
    "runtime.physical_creates": "count",
    "runtime.physical_culls": "count",
    "runtime.hit_rate": "ratio",
    "idle_store.pop_us.p50": "us",
    "idle_store.push_us.p50": "us",
    "idle_store.integral_us.p50": "us",
    "idle_store.cull_us.p50": "us",
    "idle_store.pop_hit_rate": "ratio",
    "idle_store.depth.max": "count",
    "retention.reap_us.p50": "us",
    "retention.reap_us.max": "us",
    "retention.reap_culled": "count",
    "retention.admit_us.p50": "us",
    "shim.thread_start_us.p50": "us",
    "shim.thread_join_us.p50": "us",
    "shim.start_new_thread_us.p50": "us",
    "shim.tracked_handles": "count",
    "idle_workers.mean": "count",
    "trace.overhead_pct": "%",
}
REFS = ("ref.pingpong_us.p50", "ref.threading_thread_us.p50",
        "ref.executor_us.p50")


class ChildFailed(RuntimeError):
    pass


def machine_facts(seed: int, cpu: int) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "switch_interval_s": sys.getswitchinterval(),
        "gil_enabled": gil() if gil is not None else True,
        "machine": platform.machine(),
        "seed": seed,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("THREADCACHE")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline: float) -> tuple:
    """Run child.py; returns (seconds from start to 'ready', result dict).

    The child is killed if it is still running at ``deadline``
    (time.monotonic()), so a hung runtime fails the run instead of
    stalling it.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not lines:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {code}")
    return ready, json.loads(lines[-1])


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def traced(a, common, deadline) -> tuple:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{a.workload}-seed{a.seed}.csv.gz")
    _, res = run_child(["--mode", "trace", "--spans", spans, *common],
                       deadline)
    per = res["metrics"]
    for k, v in res["span_counts"].items():
        print(f"spans {k} n={v}")
    print(f"spans written {res['spans']} to {os.path.relpath(spans, ROOT)}")
    print(f"trace latency_us.p50 untraced "
          f"{fmt(res['latency_us.p50.untraced'])} traced "
          f"{fmt(res['latency_us.p50.traced'])}")
    for k, u in PER_LAYER.items():
        print(f"layer {k} {fmt(per[k])} {u}")
    return res, {k: {"value": per[k], "unit": u} for k, u in PER_LAYER.items()}


def untraced(a, common, deadline) -> tuple:
    setups = [run_child(["--mode", "setup", *common], deadline)[0]
              for _ in range(SETUP_PROBES)]
    ready, res = run_child(["--mode", "measure", *common], deadline)
    setups.append(ready)
    m = res["metrics"]
    m["setup_s"] = statistics.median(setups)
    m["error_rate"] = res["failed"] / res["attempted"]
    print(f"setup_s samples {' '.join(fmt(s) for s in setups)}")
    for k, unit in {**END_TO_END, **REPORTED}.items():
        print(f"{k} {fmt(m[k])} {unit}")
    print("counters " + " ".join(f"{k}={v}" for k, v in
                                 res["counters"].items()))
    print(f"shim tracked_handles {res['tracked_handles']}")
    if a.workload == "churn":
        _, ref = run_child(["--mode", "ref", *common], deadline)
        for k in REFS:
            print(f"{k} {fmt(ref['metrics'][k])} us (context)")
    return res, {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "threadcache",
                                       "__init__.py")):
        print(f"error: no threadcache source under {ROOT}/src",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    cpu = max(os.sched_getaffinity(0))
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--cpu", str(cpu)]
    for k, v in machine_facts(a.seed, cpu).items():
        print(f"machine {k} {v}")

    filler = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "filler.py"), str(cpu),
         str(RUN_BUDGET_S)], stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL)
    try:
        res, metrics = (traced if a.trace else untraced)(a, common, deadline)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        filled = filler.poll() is None
        filler.kill()
        filler.wait()

    print(f"machine sched_policy {res['sched']}")
    print(f"machine idle_filler {'sched_idle' if filled else 'none'}")
    for k, v in res["failures"].items():
        print(f"failures {k} {v}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
