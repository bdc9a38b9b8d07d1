"""Figure 4 — normalized delayed-TLB MPKI vs. TLB size (1K–64K entries).

Paper setup (Section IV-A.1): translation requests filtered by a 2 MB
LLC; only LLC misses reach the delayed TLB.  The claim: for GUPS, mcf,
and milc the page working set dwarfs even a 32K-entry delayed TLB, so
growing it barely helps — fixed-granularity delayed translation does not
scale.  The other workloads (xalancbmk, tigr, omnetpp, soplex) have page
locality and their curves fall steeply.
"""

from __future__ import annotations

import pytest

from repro.common.params import SystemConfig
from repro.common.stats import mpki
from repro.exec import ExperimentPlan, Job
from repro.workloads import FIG4_WORKLOADS, spec

from conftest import emit, run_once

SIZES = (1024, 2048, 4096, 8192, 16384, 32768, 65536)
ACCESSES = 30_000
WARMUP = 30_000

SCALING_HOSTILE = ("gups", "milc", "mcf")
SCALING_FRIENDLY = ("xalancbmk", "tigr", "omnetpp", "soplex")


def build_plan():
    """One job per (workload, delayed-TLB size) grid point."""
    plan = ExperimentPlan()
    points = {}
    for name in FIG4_WORKLOADS:
        for entries in SIZES:
            job = Job(workload=name, mmu="hybrid_tlb",
                      config=SystemConfig().with_delayed_tlb_entries(entries),
                      accesses=ACCESSES, warmup=WARMUP,
                      reset_stats_after_warmup=True,
                      tags=(("delayed_tlb.entries", entries),))
            plan.add(job)
            points[(name, entries)] = job
    return plan, points


def measure_all(engine):
    plan, points = build_plan()
    results = engine.run(plan)
    curves = {}
    for name in FIG4_WORKLOADS:
        instructions = spec(name).instructions_for(ACCESSES)
        curves[name] = [
            mpki(results.result(points[(name, entries)])
                 .counter("delayed_tlb", "misses"), instructions)
            for entries in SIZES]
    return curves


@pytest.mark.benchmark(group="fig4")
def test_fig4_delayed_tlb_mpki(benchmark, report, engine):
    curves = run_once(benchmark, measure_all, engine)

    emit(report, "\nFigure 4 — delayed-TLB MPKI (absolute, then "
                 "normalized to the 1K-entry point)")
    header = "".join(f"{s // 1024}K".rjust(8) for s in SIZES)
    emit(report, f"{'workload':<12}{header}")
    normalized = {}
    for name, series in curves.items():
        emit(report, f"{name:<12}" + "".join(f"{v:8.2f}" for v in series))
        base = series[0] if series[0] else 1.0
        normalized[name] = [v / base for v in series]
    emit(report, f"{'(normalized)':<12}")
    for name, series in normalized.items():
        emit(report, f"{name:<12}" + "".join(f"{v:8.2f}" for v in series))

    for name, series in curves.items():
        # Larger delayed TLBs never hurt (monotone non-increasing within
        # simulation noise).
        for a, b in zip(series, series[1:]):
            assert b <= a * 1.10, f"{name}: non-monotone {series}"

    for name in SCALING_HOSTILE:
        series = normalized[name]
        # Even 32x more entries leaves most of the misses: the paper's
        # "significant TLB misses remain even with a 32K-entry TLB".
        assert series[5] > 0.55, f"{name} fell too fast: {series}"
        assert curves[name][5] > 5.0, f"{name} MPKI too low to matter"

    for name in SCALING_FRIENDLY:
        series = normalized[name]
        # Locality-bearing curves fall steeply with size.
        assert series[5] < 0.55, f"{name} should benefit: {series}"

    # The contrast itself: hostile curves stay far above friendly ones.
    worst_friendly = max(normalized[n][5] for n in SCALING_FRIENDLY)
    best_hostile = min(normalized[n][5] for n in SCALING_HOSTILE)
    assert best_hostile > worst_friendly
