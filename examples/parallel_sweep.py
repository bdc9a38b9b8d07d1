#!/usr/bin/env python
"""Parallel, cached experiment execution with the ``repro.exec`` engine.

Every data point is a frozen job, so an N-point sweep is embarrassingly
parallel: ``grid_jobs`` builds one job per grid point, and
``ExperimentPlan.run`` takes the executor and the result cache.  This
tour:

1. runs a delayed-TLB x LLC-size grid serially and in a process pool,
   showing the wall-clock ratio and that the results are bit-identical;
2. reruns the same grid against an on-disk ``ResultCache`` and shows
   the warm rerun performing zero new simulations;
3. demonstrates per-job error capture: a sweep containing an invalid
   point still completes its valid points.
"""

import os
import tempfile
import time

from repro.common import SystemConfig
from repro.exec import (ExperimentPlan, Job, ParallelExecutor, ResultCache,
                        SerialExecutor)
from repro.sim.sweep import grid_jobs

ACCESSES = 40_000
WARMUP = 10_000
WORKERS = min(4, os.cpu_count() or 1)

GRID = {
    "delayed_tlb.entries": [1024, 4096],
    "llc.size_bytes": [1 << 20, 2 << 20],
}


def grid_plan() -> ExperimentPlan:
    """The grid's jobs: gups on hybrid_tlb, one job per point."""
    return ExperimentPlan(grid_jobs("gups", "hybrid_tlb", GRID,
                                    SystemConfig(), accesses=ACCESSES,
                                    warmup=WARMUP, seed=42, interval=None))


def parallel_section() -> None:
    print("-- serial vs. parallel grid sweep (gups x "
          f"{len(GRID['delayed_tlb.entries']) * len(GRID['llc.size_bytes'])} "
          "points) --")
    t0 = time.perf_counter()
    serial = grid_plan().run().results()
    serial_s = time.perf_counter() - t0

    pool = ParallelExecutor(workers=WORKERS)
    t0 = time.perf_counter()
    parallel = grid_plan().run(executor=pool).results()
    parallel_s = time.perf_counter() - t0
    pool.close()

    identical = all(a.cycles == b.cycles and a.stats == b.stats
                    for a, b in zip(serial, parallel))
    print(f"serial:   {serial_s:6.2f}s")
    print(f"parallel: {parallel_s:6.2f}s  ({WORKERS} workers, "
          f"{serial_s / parallel_s:.1f}x)")
    if (os.cpu_count() or 1) < 2:
        print("(single-CPU machine: pool overhead without speedup — "
              "the ratio approaches the worker count on multi-core hosts)")
    print(f"bit-identical results: {identical}")


def cache_section() -> None:
    print("\n-- fingerprint-keyed result cache --")
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        cold = SerialExecutor()
        grid_plan().run(executor=cold, cache=cache)
        warm = SerialExecutor()
        grid_plan().run(executor=warm, cache=cache)
        print(f"cold run simulated {cold.submitted} points")
        print(f"warm rerun simulated {warm.submitted} points "
              f"({cache.hits} served from cache)")


def error_section() -> None:
    print("\n-- per-job error capture --")
    plan = ExperimentPlan([
        Job("stream", "baseline", accesses=ACCESSES, warmup=WARMUP),
        Job("stream", "no_such_mmu", accesses=ACCESSES, warmup=WARMUP),
    ])
    results = plan.run()
    ok = results.results()
    errors = results.errors()
    print(f"{len(ok)} points succeeded, {len(errors)} captured as JobError")
    for error in errors:
        print(f"  {error.workload}/{error.mmu}: "
              f"{error.error_type}: {error.message[:60]}...")


def main() -> None:
    print("=== repro.exec engine tour ===\n")
    parallel_section()
    cache_section()
    error_section()


if __name__ == "__main__":
    main()
