"""The three workloads, their seeded inputs and their correctness checks.

Every workload is a closed loop driven by one client thread: the next
operation starts only after the previous one completed and was checked.

* ``churn``    spawn+join on a cached ThreadCache (UNBOUNDED policy). After
  warm-up every spawn is a cache hit: the runtime hot path, the idle store
  at depth <= 1 and the park/wake hand-off do nearly all the work.
* ``physical`` the same loop with caching disabled (THREADCACHE=0
  semantics): every spawn creates and retires an OS thread, and the idle
  store is never touched.
* ``burst``    seeded fan-out/fan-in through the threading shim under an
  INTEGRAL_BUDGET policy with a short reap period: the store runs deep,
  the reaper scans and culls, some spawns miss, and both shim entry points
  (threading.Thread and _thread.start_new_thread) are on the path.

Operations run in a fixed number, set from the run length, so memory
figures compare across versions whatever their speed.
"""

from __future__ import annotations

import _thread
import collections
import random
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter_ns, process_time

from hist import LogHistogram

WORKLOADS = ("churn", "physical", "burst")

# operations per second of --seconds, and warm-up operations, per workload;
# sized so one run measures about --seconds on a 2-vCPU machine
OPS_PER_SECOND = {"churn": 40_000, "physical": 3_000, "burst": 250}
WARMUP_OPS = {"churn": 2_000, "physical": 300, "burst": 40}
MIN_OPS = 1_000  # a p99 needs ten samples beyond it

# burst shape
MAX_FANOUT = 16
BURST_FLOATS = 1_536
MEAN_GAP_S = 0.002
BUDGET_THREAD_S = 0.05
REAP_PERIOD_S = 0.01
WAIT_TIMEOUT_S = 10.0

# start styles of one logical thread in a burst
JOINED, SIGNALLED, RAW = 0, 1, 2

def op_count(workload: str, seconds: float, fraction: float = 1.0) -> int:
    return max(MIN_OPS, int(OPS_PER_SECOND[workload] * seconds * fraction))


@dataclass
class Tally:
    """Attempted and failed operations, with failures counted by kind."""
    attempted: int = 0
    failed: int = 0
    kinds: collections.Counter = field(default_factory=collections.Counter)

    def fail(self, kind: str):
        self.kinds[kind] += 1

    def settle(self, op_failed: bool):
        self.attempted += 1
        if op_failed:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Phase:
    """What one measured stretch of a workload saw."""
    latency: LogHistogram = field(default_factory=LogHistogram)
    logical_threads: int = 0
    timed_ns: int = 0
    cpu_s: float = 0.0
    idle_sum: int = 0
    threads_sum: int = 0
    samples: int = 0

    def sample(self, rt):
        self.idle_sum += rt.stats().current_idle
        self.threads_sum += threading.active_count()
        self.samples += 1

    def metrics(self) -> dict:
        lat = self.latency
        return {
            "latency_us.p50": lat.percentile(0.50) / 1e3,
            "latency_us.p90": lat.percentile(0.90) / 1e3,
            "latency_us.p99": lat.percentile(0.99) / 1e3,
            "latency_us.samples": lat.n,
            "throughput_ops": self.logical_threads / (self.timed_ns / 1e9),
            "cpu_us_per_op": self.cpu_s * 1e6 / max(lat.n, 1),
            "idle_workers.mean": self.idle_sum / self.samples,
            "threads.mean": self.threads_sum / self.samples,
        }


# -- runtimes ---------------------------------------------------------------

def make_runtime(tc, workload: str):
    """The runtime a workload runs on; tc is the threadcache package."""
    if workload == "churn":
        return tc.ThreadCache(enabled=True, retention=tc.RetentionConfig())
    if workload == "physical":
        return tc.ThreadCache(enabled=False, retention=tc.RetentionConfig())
    cfg = tc.RetentionConfig(policy=tc.Policy.INTEGRAL_BUDGET,
                             budget=BUDGET_THREAD_S,
                             reap_period=REAP_PERIOD_S)
    return tc.ThreadCache(enabled=True, retention=cfg)


def check_counters(rt, workload: str, tally: Tally):
    """Run-level checks, each counted as one attempted operation."""
    s = rt.stats()
    ok = s.spawns_total == s.cache_hits + s.physical_creates
    if not ok:
        tally.fail("conservation")
    tally.settle(not ok)
    if workload == "physical":
        ok = s.cache_hits == 0
        if not ok:
            tally.fail("cache_hit")
        tally.settle(not ok)


# -- churn and physical -----------------------------------------------------

def echo(i):
    return i


SAMPLE_EVERY = 16  # spawn+join ops between two samples of the idle count


def spawn_join(tc, rt, n: int, tally: Tally, task=echo,
               start: int = 0) -> Phase:
    """n closed-loop spawn+join round trips; task(i) must return i."""
    phase = Phase()
    add = phase.latency.add
    spawn = rt.spawn
    SpawnError, TaskPoisoned = tc.SpawnError, tc.TaskPoisoned
    c0 = process_time()
    for i in range(start, start + n):
        t0 = perf_counter_ns()
        try:
            v = spawn(task, i).join()
        except SpawnError:
            tally.fail("spawn_error")
            tally.settle(True)
            continue
        except TaskPoisoned:
            tally.fail("task_poisoned")
            tally.settle(True)
            continue
        t1 = perf_counter_ns()
        add(t1 - t0)
        phase.timed_ns += t1 - t0
        if v != i:
            tally.fail("wrong_value")
        tally.settle(v != i)
        if i % SAMPLE_EVERY == 0:
            phase.sample(rt)
    phase.cpu_s += process_time() - c0
    phase.logical_threads = phase.latency.n
    return phase


# -- burst ------------------------------------------------------------------

@dataclass
class BurstInput:
    styles: list        # one start style per logical thread; len = fan-out
    data: list          # floats to sort
    expected: list      # sorted(data), the merge oracle
    gap_s: float        # think time after the burst


def burst_inputs(seed: int):
    """Endless seeded stream of bursts; the same seed gives the same stream."""
    rng = random.Random(seed)
    while True:
        fanout = rng.randint(1, MAX_FANOUT)
        styles = [rng.randrange(3) for _ in range(fanout)]
        data = [rng.random() for _ in range(BURST_FLOATS)]
        yield BurstInput(styles, data, sorted(data),
                         rng.expovariate(1 / MEAN_GAP_S))


def sort_into(out, j, chunk, done):
    """Body of one logical thread: sort a chunk, then signal if asked to."""
    try:
        out[j] = sorted(chunk)
    finally:
        if done is not None:
            done.release()


def one_burst(inp: BurstInput, done, tally: Tally, body=sort_into):
    """Fan the chunks out on new threads, fan in, merge; True if correct.

    Starts go through the module attributes threading.Thread and
    _thread.start_new_thread, so an installed shim serves them.
    """
    fanout = len(inp.styles)
    data = inp.data
    bounds = [len(data) * j // fanout for j in range(fanout + 1)]
    out = [None] * fanout
    joined = []
    signalled = 0
    ok = True
    for j, style in enumerate(inp.styles):
        chunk = data[bounds[j]:bounds[j + 1]]
        try:
            if style == RAW:
                _thread.start_new_thread(body, (out, j, chunk, done))
                signalled += 1
            else:
                t = threading.Thread(target=body, args=(
                    out, j, chunk, done if style == SIGNALLED else None))
                t.start()
                if style == SIGNALLED:
                    signalled += 1
                else:
                    joined.append(t)
        except RuntimeError:  # SpawnError, or the stdlib's can't-start
            tally.fail("spawn_error")
            ok = False
    for t in joined:
        t.join(WAIT_TIMEOUT_S)
        if t.is_alive():
            tally.fail("timeout")
            ok = False
    for _ in range(signalled):
        if not done.acquire(timeout=WAIT_TIMEOUT_S):
            tally.fail("timeout")
            ok = False
            break
    return merge_checked(out, inp.expected, tally) and ok


def merge_checked(chunks, expected, tally: Tally) -> bool:
    merged = []
    try:
        for c in chunks:
            merged.extend(c)
    except TypeError:  # a chunk never arrived
        merged = None
    else:
        merged.sort()  # timsort merges the sorted runs
    if merged != expected:
        tally.fail("merge_mismatch")
        return False
    return True


def bursts(rt, inputs, n: int, tally: Tally, body=sort_into) -> Phase:
    """n bursts from the input stream, each followed by its think time.

    The CPU window covers the bursts, the idle-count samples and the think
    time (when the reaper runs), not the making of inputs.
    """
    phase = Phase()
    done = threading.Semaphore(0)
    for _ in range(n):
        inp = next(inputs)
        c0 = process_time()
        t0 = perf_counter_ns()
        ok = one_burst(inp, done, tally, body)
        t1 = perf_counter_ns()
        tally.settle(not ok)
        if ok:
            phase.latency.add(t1 - t0)
            phase.timed_ns += t1 - t0
            phase.logical_threads += len(inp.styles)
        phase.sample(rt)
        time.sleep(inp.gap_s)
        phase.cpu_s += process_time() - c0
    return phase
