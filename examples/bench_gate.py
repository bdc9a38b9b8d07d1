#!/usr/bin/env python
"""The benchmark regression gate, end to end and in memory.

1. run the canonical model-metric suite and assemble a
   ``repro.bench/v2`` baseline (what ``repro bench record`` writes);
2. re-run it and compare — model metrics are deterministic, so the gate
   passes with every delta at exactly 0%;
3. inject a 20% IPC regression into a copy of the "current" document and
   watch the same comparison fail.

Equivalent CLI: ``repro bench record --out baseline.json`` then
``repro bench check --baseline baseline.json``.
"""

import copy

from repro.bench import (
    compare_baselines,
    jobs_from_baseline,
    make_baseline,
    run_suite,
    suite_jobs,
)
from repro.exec import ExperimentPlan

ACCESSES = 3_000
WARMUP = 1_000
POINTS = [("stream/baseline", "stream", "baseline"),
          ("stream/hybrid_tlb", "stream", "hybrid_tlb")]


def run(jobs):
    """Run the suite's ``(name, job)`` pairs as one plan; the v2 entries."""
    return run_suite(jobs, ExperimentPlan(job for _, job in jobs).run())


def main() -> None:
    print("-- recording the baseline --")
    baseline = make_baseline(run(
        suite_jobs(points=POINTS, accesses=ACCESSES, warmup=WARMUP)))
    for entry in baseline["benchmarks"]:
        metrics = "  ".join(f"{k}={v:.4g}"
                            for k, v in sorted(entry["metrics"].items()))
        print(f"{entry['name']:<22} {metrics}")

    print("\n-- re-running the suite the baseline describes --")
    current = make_baseline(run(jobs_from_baseline(baseline)))
    report = compare_baselines(baseline, current, threshold_pct=10.0)
    print(f"verdict: {'PASS' if report.ok else 'FAIL'} "
          f"({len(report.deltas)} metric deltas, "
          f"{len(report.regressions)} regressions)")

    print("\n-- injecting a 20% IPC regression --")
    broken = copy.deepcopy(current)
    broken["benchmarks"][0]["metrics"]["ipc"] *= 0.8
    report = compare_baselines(baseline, broken, threshold_pct=10.0)
    print(f"verdict: {'PASS' if report.ok else 'FAIL'}")
    for delta in report.regressions:
        print(f"  {delta.benchmark} {delta.metric}: "
              f"{delta.baseline:.4g} -> {delta.current:.4g} "
              f"({delta.change_pct:+.1f}%) {delta.status}")


if __name__ == "__main__":
    main()
