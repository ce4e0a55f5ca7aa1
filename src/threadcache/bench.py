"""Benchmark harness: spawn, deferred-start, and fork-join workloads.

``spawn`` runs K independent creator threads, each looping "create a child
thread, wait for it to join"; children exit immediately (optionally after
``spin_ns`` of busywork). Reported value is completed join cycles per
second over the measurement interval — counting completed cycles, not
initiated spawns, avoids end-of-interval truncation bias.

``deferred`` is the same shape but each iteration builds a Deferred whose
underlying thread is materialized only when the result is demanded.

``forkjoin`` sorts a pseudorandom array by recursive divide-and-conquer,
spawning one logical thread per subproblem above a cutoff, and reports
elapsed milliseconds; output equal to ``sorted(data)`` is a hard
correctness gate.

Results aggregate as the median of an odd number of runs. In ``default``
mode the runtime is built with caching disabled (the THREADCACHE=0
semantics: every spawn is a physical create), and the harness asserts that
no cache hits occurred.
"""

from __future__ import annotations

import argparse
import csv
import logging
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import IO, List, Optional, Sequence

from .runtime import CacheStats, SpawnError, ThreadCache

log = logging.getLogger(__name__)

WORKLOADS = ("spawn", "deferred", "forkjoin")
MODES = ("default", "cached", "both")
CSV_COLUMNS = ("workload", "mode", "creators", "run", "value", "unit")

_UNIT = {"spawn": "threads/second", "deferred": "threads/second",
         "forkjoin": "milliseconds"}


class GateError(RuntimeError):
    """A benchmark correctness gate failed."""


@dataclass
class BenchConfig:
    workload: str = "spawn"
    creators: int = 1
    duration: float = 10.0
    runs: int = 7
    mode: str = "both"
    sweep: Optional[List[int]] = None
    output: Optional[str] = None
    seed: int = 0
    spin_ns: int = 0
    forkjoin_n: int = 1_000_000
    cutoff: int = 8192

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.runs < 1 or self.runs % 2 == 0:
            raise ValueError("runs must be a positive odd count")
        if self.creators < 1:
            raise ValueError("creators must be >= 1")

    @property
    def modes(self) -> List[str]:
        return ["default", "cached"] if self.mode == "both" else [self.mode]


@dataclass
class BenchResult:
    workload: str
    mode: str
    creators: int
    run_index: int
    value: float          # threads/second, or elapsed ms for forkjoin
    unit: str
    stats_snapshot: CacheStats = field(default=None)


def median_of(values: Sequence[float]) -> float:
    """Middle order statistic; the run count must be odd."""
    n = len(values)
    if n == 0 or n % 2 == 0:
        raise ValueError("median requires an odd number of values")
    return sorted(values)[n // 2]


class Deferred:
    """A logical thread whose physical dispatch waits for the first demand."""

    __slots__ = ("_rt", "_fn", "_handle")

    def __init__(self, rt: ThreadCache, fn):
        self._rt = rt
        self._fn = fn
        self._handle = None

    @property
    def demanded(self) -> bool:
        return self._handle is not None

    def result(self):
        if self._handle is None:
            self._handle = self._rt.spawn(self._fn)
        return self._handle.join()


def _make_child(spin_ns: int):
    if spin_ns <= 0:
        def child():
            pass
    else:
        def child():
            end = time.monotonic_ns() + spin_ns
            while time.monotonic_ns() < end:
                pass
    return child


def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(
        spawns_total=after.spawns_total - before.spawns_total,
        cache_hits=after.cache_hits - before.cache_hits,
        physical_creates=after.physical_creates - before.physical_creates,
        physical_culls=after.physical_culls - before.physical_culls,
        current_idle=after.current_idle,
        peak_idle=after.peak_idle,
    )


def _timed_creator_run(cfg: BenchConfig, mode: str, iterate) -> (float, CacheStats):
    """Shared driver: K creators loop `iterate(rt)` until the deadline."""
    rt = ThreadCache(enabled=(mode == "cached"))
    try:
        counts = [None] * cfg.creators
        barrier = threading.Barrier(cfg.creators + 1)
        deadline = [0.0]

        def creator(i):
            barrier.wait()
            end = deadline[0]
            n = 0
            while time.monotonic() < end:
                iterate(rt)
                n += 1
            counts[i] = n

        for i in range(cfg.creators):
            rt.spawn(creator, i)
        before = rt.stats()
        deadline[0] = time.monotonic() + cfg.duration
        barrier.wait()
        end = deadline[0]
        while time.monotonic() < end:
            time.sleep(min(0.05, max(0.0, end - time.monotonic())))
        # creators observe the same deadline; wait for them to retire
        while any(c is None for c in counts):
            time.sleep(0.001)
        after = rt.stats()
        delta = _stats_delta(before, after)
        if mode == "default" and delta.cache_hits != 0:
            raise GateError("default mode recorded cache hits")
        return sum(counts) / cfg.duration, delta
    finally:
        rt.shutdown(join=False)


def _run_repeated(cfg: BenchConfig, mode: str, one_run) -> List[BenchResult]:
    results = []
    run_index = 0
    attempts = 0
    while run_index < cfg.runs:
        try:
            value, snap = one_run()
        except SpawnError as exc:
            attempts += 1
            log.warning("run discarded after spawn failure: %s", exc)
            if attempts > 3 * cfg.runs:
                raise
            continue
        results.append(BenchResult(cfg.workload, mode, cfg.creators,
                                   run_index, value, _UNIT[cfg.workload],
                                   snap))
        run_index += 1
    return results


def run_spawn_bench(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    child = _make_child(cfg.spin_ns)

    def iterate(rt):
        rt.spawn(child).join()

    return _run_repeated(cfg, mode,
                         lambda: _timed_creator_run(cfg, mode, iterate))


def run_deferred_bench(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    child = _make_child(cfg.spin_ns)

    def iterate(rt):
        Deferred(rt, child).result()

    return _run_repeated(cfg, mode,
                         lambda: _timed_creator_run(cfg, mode, iterate))


def forkjoin_sort(rt: ThreadCache, data: List, cutoff: int) -> List:
    """Sort by recursive halving; one spawned logical thread per split."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")

    def sort_range(arr):
        if len(arr) <= cutoff:
            arr.sort()
            return arr
        mid = len(arr) // 2
        handle = rt.spawn(sort_range, arr[:mid])
        right = sort_range(arr[mid:])
        left = handle.join()
        merged = left + right
        merged.sort()  # timsort merges the two sorted runs near-linearly
        return merged

    return sort_range(data)


def run_forkjoin_bench(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    def one_run():
        rng = random.Random(cfg.seed)
        data = [rng.random() for _ in range(cfg.forkjoin_n)]
        # taken before the run: forkjoin_sort may sort data in place
        expected = sorted(data)
        rt = ThreadCache(enabled=(mode == "cached"))
        try:
            before = rt.stats()
            t0 = time.monotonic()
            out = forkjoin_sort(rt, data, cfg.cutoff)
            elapsed_ms = (time.monotonic() - t0) * 1e3
            after = rt.stats()
            if out != expected:
                raise GateError("fork-join output is not sorted(data)")
            return elapsed_ms, _stats_delta(before, after)
        finally:
            rt.shutdown(join=False)

    return _run_repeated(cfg, mode, one_run)


_RUNNERS = {"spawn": run_spawn_bench, "deferred": run_deferred_bench,
            "forkjoin": run_forkjoin_bench}


def run_workload(cfg: BenchConfig, mode: str) -> List[BenchResult]:
    return _RUNNERS[cfg.workload](cfg, mode)


def run_sweep(cfg: BenchConfig, stream: IO[str]) -> List[BenchResult]:
    """Grid over sweep x modes; one CSV row per run plus a median row each.

    Rows are flushed one by one so an interrupted sweep loses at most the
    row in flight.
    """
    sweep = cfg.sweep if cfg.sweep else [cfg.creators]
    if not sweep:
        raise ValueError("sweep list must be nonempty")
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    stream.flush()
    all_results = []
    for creators in sweep:
        point = BenchConfig(**{**cfg.__dict__, "creators": creators,
                               "sweep": None})
        for mode in cfg.modes:
            results = run_workload(point, mode)
            for r in results:
                writer.writerow([r.workload, r.mode, r.creators,
                                 r.run_index, repr(r.value), r.unit])
                stream.flush()
            med = median_of([r.value for r in results])
            writer.writerow([cfg.workload, mode, creators, "median",
                             repr(med), _UNIT[cfg.workload]])
            stream.flush()
            all_results.extend(results)
    return all_results


def read_results(stream: IO[str]):
    """Parse a sweep CSV back into (data_rows, median_rows) dict lists."""
    reader = csv.DictReader(stream)
    if reader.fieldnames != list(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
    data, medians = [], []
    for row in reader:
        row["creators"] = int(row["creators"])
        row["value"] = float(row["value"])
        if row["run"] == "median":
            medians.append(row)
        else:
            row["run"] = int(row["run"])
            data.append(row)
    return data, medians


def _parse_sweep(text: str) -> List[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("sweep must be comma-separated ints")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("sweep entries must be >= 1")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="threadcache-bench",
        description="Thread creation/recycling benchmark harness")
    p.add_argument("--workload", choices=WORKLOADS, default="spawn")
    p.add_argument("--creators", type=int, default=1, metavar="K")
    p.add_argument("--duration", type=float, default=10.0, metavar="S")
    p.add_argument("--runs", type=int, default=7, metavar="R")
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   metavar="1,2,4,...")
    p.add_argument("--csv", dest="output", default=None, metavar="PATH")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--spin-ns", type=int, default=0, metavar="N")
    p.add_argument("--forkjoin-n", type=int, default=1_000_000, metavar="N")
    p.add_argument("--cutoff", type=int, default=8192, metavar="N")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    cfg = BenchConfig(workload=args.workload, creators=args.creators,
                      duration=args.duration, runs=args.runs, mode=args.mode,
                      sweep=args.sweep, output=args.output, seed=args.seed,
                      spin_ns=args.spin_ns, forkjoin_n=args.forkjoin_n,
                      cutoff=args.cutoff)
    try:
        if cfg.output:
            with open(cfg.output, "w", newline="") as f:
                results = run_sweep(cfg, f)
        else:
            results = run_sweep(cfg, sys.stdout)
        by_mode = {}
        for r in results:
            by_mode.setdefault((r.mode, r.creators), []).append(r.value)
        for (mode, creators), vals in sorted(by_mode.items()):
            log.info("%s %s creators=%d median=%.1f %s", cfg.workload, mode,
                     creators, median_of(vals), _UNIT[cfg.workload])
    except GateError as exc:
        log.error("correctness gate failed: %s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
