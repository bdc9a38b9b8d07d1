"""The canonical model-metric suite behind ``repro bench record``.

A handful of fast (workload, MMU) points spanning the paper's main
comparison — conventional baseline, delayed page-granularity TLB, and
many-segment delayed translation, on a streaming and a pointer-chasing
workload.  Each point contributes *model* metrics (IPC, LLC miss rate,
delayed-TLB MPKI, TLB bypass rate) pulled from its result document plus
its wall-clock seconds, so the gate sees regressions in what the model
computes and in what the harness costs.

Every entry records the exact job parameters and fingerprint that
produced it, which makes a baseline self-describing: ``repro bench
check`` rebuilds the same jobs from the baseline alone — no drift
between what was recorded and what is re-measured.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.exec.job import Job
from repro.exec.plan import PlanResults

#: ``(name, workload, mmu)`` points of the canonical suite.
SUITE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("stream/baseline", "stream", "baseline"),
    ("stream/hybrid_tlb", "stream", "hybrid_tlb"),
    ("stream/hybrid_segments", "stream", "hybrid_segments"),
    ("gups/baseline", "gups", "baseline"),
    ("gups/hybrid_segments", "gups", "hybrid_segments"),
)

DEFAULT_ACCESSES = 6_000
DEFAULT_WARMUP = 2_000
DEFAULT_SEED = 42


def metrics_from_result(result) -> Dict[str, float]:
    """The gated model metrics of one ``SimulationResult``."""
    metrics: Dict[str, float] = {
        "ipc": result.ipc,
        "cycles": float(result.cycles),
        "llc_miss_rate": result.llc_miss_rate(),
    }
    if result.group("delayed_tlb"):
        metrics["delayed_tlb_mpki"] = result.tlb_mpki()
    hybrid = result.group("hybrid")
    if hybrid.get("accesses"):
        metrics["tlb_bypass_rate"] = (
            hybrid.get("tlb_bypasses", 0) / hybrid["accesses"])
    return metrics


def suite_jobs(points: Sequence[Tuple[str, str, str]] = SUITE_POINTS,
               accesses: int = DEFAULT_ACCESSES,
               warmup: int = DEFAULT_WARMUP,
               seed: int = DEFAULT_SEED) -> List[Tuple[str, Job]]:
    """``(name, Job)`` pairs for the canonical suite."""
    return [(name, Job(workload=workload, mmu=mmu, accesses=accesses,
                       warmup=warmup, seed=seed))
            for name, workload, mmu in points]


def jobs_from_baseline(doc: Dict[str, Any]) -> List[Tuple[str, Job]]:
    """Rebuild the recorded jobs from a baseline's benchmark entries.

    Entries without job parameters (e.g. the pytest-session timings in
    ``benchmarks/results/latest.json``) are skipped — they carry only
    seconds and can be compared against an explicit ``--current``
    document, not re-run from here.
    """
    jobs: List[Tuple[str, Job]] = []
    for entry in doc.get("benchmarks", []):
        if not all(key in entry for key in
                   ("workload", "mmu", "accesses", "warmup", "seed")):
            continue
        jobs.append((entry["name"],
                     Job(workload=entry["workload"], mmu=entry["mmu"],
                         accesses=entry["accesses"], warmup=entry["warmup"],
                         seed=entry["seed"])))
    return jobs


def run_suite(jobs: Sequence[Tuple[str, Job]],
              results: PlanResults) -> List[Dict[str, Any]]:
    """The v2 benchmark entries of the suite ``jobs``, from the
    ``results`` of running them as one plan (``ExperimentPlan(job for
    _, job in jobs).run(...)``; the CLI runs it like every command).

    Seconds come from each result's manifest (per-run wall-clock);
    metrics from :func:`metrics_from_result`.  A failed point raises —
    a baseline must never silently record a partial suite.
    """
    entries: List[Dict[str, Any]] = []
    for name, job in jobs:
        result = results.result(job)
        entries.append({
            "name": name,
            "workload": job.workload_name,
            "mmu": job.mmu,
            "accesses": job.accesses,
            "warmup": job.warmup,
            "seed": job.seed,
            "fingerprint": job.fingerprint(),
            "config_hash": job.identity()["config_hash"],
            "seconds": (result.manifest.duration_s if result.manifest
                        else 0.0),
            "metrics": metrics_from_result(result),
        })
    return entries
