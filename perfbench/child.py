"""One workload process. Started by run.py, never by hand.

Modes:
  setup    set up and warm up, then exit (a set-up time sample)
  measure  set up, then run the measured operations untraced
  trace    set up, run an untraced stretch, then the same stretch again
           with every layer wrapped in spans, and derive per-layer metrics
  ref      stdlib reference rows under churn's timer and loop

The process pins itself to one CPU and switches to SCHED_BATCH before
anything else, prints the line ``ready`` when set-up is done, and prints
one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from hist import LogHistogram  # noqa: E402
import workloads as wl  # noqa: E402

# operations per second of --seconds in each stretch of a traced run; small,
# since every operation leaves several spans in memory
TRACE_OPS_PER_SECOND = {"churn": 1_000, "physical": 300, "burst": 40}


def import_threadcache():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import threadcache
    if not os.path.abspath(threadcache.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"threadcache imported from {threadcache.__file__}, "
                          f"not from {ROOT}/src")
    return threadcache


class Workload:
    """A set-up workload: runtime, inputs and a run(n, tally) entry."""

    def __init__(self, tc, name: str, seed: int):
        self.tc = tc
        self.name = name
        self.rt = wl.make_runtime(tc, name)
        if name == "burst":
            from threadcache import shim
            shim.install(self.rt)
            self.inputs = wl.burst_inputs(seed)
        else:
            self.next_arg = random.Random(seed).getrandbits(40)
        self.task = wl.sort_into if name == "burst" else wl.echo

    def run(self, n: int, tally: wl.Tally) -> wl.Phase:
        if self.name == "burst":
            return wl.bursts(self.rt, self.inputs, n, tally, self.task)
        phase = wl.spawn_join(self.tc, self.rt, n, tally, self.task,
                              start=self.next_arg)
        self.next_arg += n
        return phase

    def close(self, tally: wl.Tally):
        wl.check_counters(self.rt, self.name, tally)
        if self.name == "burst":
            from threadcache import shim
            shim.uninstall()
        self.rt.shutdown()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def counters(rt) -> dict:
    s = rt.stats()
    return {"spawns_total": s.spawns_total, "cache_hits": s.cache_hits,
            "physical_creates": s.physical_creates,
            "physical_culls": s.physical_culls,
            "current_idle": s.current_idle, "peak_idle": s.peak_idle}


def measure(w: Workload, n: int, tally: wl.Tally) -> dict:
    phase = w.run(n, tally)
    out = phase.metrics()
    out["rss_mb.peak"] = peak_rss_mb()
    from threadcache import shim
    return {"metrics": out, "counters": counters(w.rt),
            "tracked_handles": len(shim.handle_map())}


def trace(w: Workload, n: int, tally: wl.Tally, spans_path: str) -> dict:
    import layers
    from spans import Tracer
    from threadcache import shim
    base = w.run(n, tally).latency.percentile(0.5)
    tracer = Tracer()
    plain_task = w.task
    undo = layers.install(tracer)
    try:
        w.task = layers.traced_task(tracer, w.tc, plain_task)
        before = w.rt.stats()
        phase = w.run(n, tally)
        after = w.rt.stats()
    finally:
        undo()
        w.task = plain_task
    traced = phase.latency.percentile(0.5)
    rows = tracer.rows()
    per, counts = layers.analyze(rows)
    spawns = after.spawns_total - before.spawns_total
    hits = after.cache_hits - before.cache_hits
    per.update({
        "runtime.spawns": spawns,
        "runtime.cache_hits": hits,
        "runtime.physical_creates":
            after.physical_creates - before.physical_creates,
        "runtime.physical_culls": after.physical_culls - before.physical_culls,
        "runtime.hit_rate": hits / spawns if spawns else 0.0,
        "idle_store.depth.max": after.peak_idle,
        "shim.tracked_handles": len(shim.handle_map()),
        "idle_workers.mean": phase.idle_sum / phase.samples,
        "trace.overhead_pct": (traced - base) / base * 100,
    })
    tracer.write(spans_path)
    return {"metrics": per, "span_counts": counts, "spans": len(rows),
            "latency_us.p50.untraced": base / 1e3,
            "latency_us.p50.traced": traced / 1e3}


# -- reference rows ---------------------------------------------------------

def _timed(n: int, op) -> float:
    """p50 in µs of n calls of op(), after a short warm-up."""
    for _ in range(min(n, 200)):
        op()
    hist = LogHistogram()
    for _ in range(n):
        t0 = perf_counter_ns()
        op()
        hist.add(perf_counter_ns() - t0)
    return hist.percentile(0.5) / 1e3


def pingpong_p50(n: int) -> float:
    """Raw two-lock ping-pong between two threads: the hand-off floor."""
    import _thread
    ping, pong = _thread.allocate_lock(), _thread.allocate_lock()
    ping.acquire()
    pong.acquire()
    stop = []

    def partner():
        while True:
            ping.acquire()
            if stop:
                return
            pong.release()

    def op():
        ping.release()
        pong.acquire()

    t = threading.Thread(target=partner)
    t.start()
    try:
        return _timed(n, op)
    finally:
        stop.append(True)
        ping.release()
        t.join()


def thread_p50(n: int) -> float:
    def op():
        t = threading.Thread(target=wl.echo, args=(0,))
        t.start()
        t.join()
    return _timed(n, op)


def executor_p50(n: int) -> float:
    with ThreadPoolExecutor(1) as ex:
        return _timed(n, lambda: ex.submit(wl.echo, 0).result())


def refs(seconds: float) -> dict:
    return {
        "ref.pingpong_us.p50":
            pingpong_p50(wl.op_count("churn", seconds, 0.1)),
        "ref.threading_thread_us.p50":
            thread_p50(wl.op_count("physical", seconds, 0.1)),
        "ref.executor_us.p50":
            executor_p50(wl.op_count("churn", seconds, 0.1)),
    }


def settle_scheduling(cpu: int) -> str:
    """Pin this process to one CPU and switch off wakeup preemption.

    Under the default policy a worker woken by spawn may preempt the
    spawning thread, which then has to be switched back in before it can
    block in join; whether that happens varies from one operation to the
    next and adds a context switch to some of them. SCHED_BATCH, inherited
    by every thread created later, keeps the woken thread waiting until
    the running one blocks. Returns the policy in force.
    """
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        return "batch"
    except (AttributeError, OSError):
        return "other"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "ref"))
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cpu", type=int, default=-1)
    ap.add_argument("--spans", default=None)
    a = ap.parse_args(argv)
    policy = settle_scheduling(a.cpu)
    if a.mode == "ref":
        print("ready", flush=True)
        print(json.dumps({"metrics": refs(a.seconds), "sched": policy}))
        return 0

    tc = import_threadcache()
    tally = wl.Tally()
    w = Workload(tc, a.workload, a.seed)
    w.run(wl.WARMUP_OPS[a.workload], tally)
    print("ready", flush=True)
    if a.mode == "measure":
        out = measure(w, wl.op_count(a.workload, a.seconds), tally)
    elif a.mode == "trace":
        n = max(1, int(TRACE_OPS_PER_SECOND[a.workload] * a.seconds))
        out = trace(w, n, tally, a.spans)
    else:
        out = {}
    w.close(tally)
    out.update(attempted=tally.attempted, failed=tally.failed,
               failures=dict(tally.kinds), sched=policy)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
