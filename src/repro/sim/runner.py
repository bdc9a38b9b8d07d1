"""One-call experiment helpers used by examples, tests and benchmarks.

``run_workload`` builds a fresh kernel, lays out the named workload,
constructs the requested MMU configuration, and simulates — so every
(workload, configuration) data point is independent and reproducible.

The helpers take only what they hand to a
:class:`~repro.exec.job.Job` (workload, MMU, accesses, warm-up, config,
seed and interval) and run their jobs serially in this process,
uncached and untraced.  A caller that wants a process pool, a result
cache, a trace, progress lines, metrics or heartbeats builds the jobs
with ``Job`` (or :func:`repro.sim.sweep.grid_jobs`) and passes those
options to :meth:`~repro.exec.plan.ExperimentPlan.run`, as the CLI and
the benchmarks do.

MMU configuration names:

* ``baseline``             — conventional physically addressed system;
* ``ideal``                — no-TLB-miss upper bound;
* ``hybrid_tlb``           — hybrid virtual caching + delayed TLB;
* ``hybrid_segments``      — hybrid + many-segment translation (with SC);
* ``hybrid_segments_nosc`` — many-segment without the segment cache.

Prior schemes (see ``repro.core.prior`` / ``repro.core.thp``):

* ``direct_segment`` — one range + paging (Basu et al., ISCA'13);
* ``rmm``            — 32 core-side ranges (Karakostas et al., ISCA'15);
* ``enigma``         — intermediate addresses + delayed page TLB;
* ``baseline_thp``   — conventional MMU with transparent 2 MB pages
  (runs on a THP kernel with 2 MB-aligned eager allocations).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.common.params import SystemConfig
from repro.core.conventional import ConventionalMmu
from repro.core.hybrid import HybridMmu
from repro.core.ideal import IdealMmu
from repro.core.mmu_base import MmuBase
from repro.osmodel.kernel import Kernel
from repro.sim.results import ComparisonRow, SimulationResult
from repro.workloads import catalog
from repro.workloads.spec import LaidOutWorkload, WorkloadSpec

MMU_CONFIGS = ("baseline", "ideal", "hybrid_tlb", "hybrid_segments",
               "hybrid_segments_nosc")

#: Prior translation schemes (paper Sections II / IV-A.2), constructible
#: through :func:`build_mmu` but not part of the default comparison set.
PRIOR_CONFIGS = ("direct_segment", "rmm", "enigma", "baseline_thp")


def build_mmu(name: str, kernel: Kernel,
              config: Optional[SystemConfig] = None) -> MmuBase:
    """Construct one MMU configuration by name."""
    if name == "baseline":
        return ConventionalMmu(kernel, config)
    if name == "ideal":
        return IdealMmu(kernel, config)
    if name == "hybrid_tlb":
        return HybridMmu(kernel, config, delayed="tlb")
    if name == "hybrid_segments":
        return HybridMmu(kernel, config, delayed="segments")
    if name == "hybrid_segments_nosc":
        return HybridMmu(kernel, config, delayed="segments",
                         use_segment_cache=False)
    if name == "direct_segment":
        from repro.core.prior import DirectSegmentMmu
        return DirectSegmentMmu(kernel, config)
    if name == "rmm":
        from repro.core.prior import RmmMmu
        return RmmMmu(kernel, config)
    if name == "enigma":
        from repro.core.prior import EnigmaMmu
        return EnigmaMmu(kernel, config)
    if name == "baseline_thp":
        from repro.core.thp import ThpBaselineMmu
        return ThpBaselineMmu(kernel, config)
    raise ValueError(f"unknown MMU configuration {name!r}; "
                     f"known: {MMU_CONFIGS + PRIOR_CONFIGS}")


def lay_out(spec: Union[str, WorkloadSpec], kernel: Kernel,
            seed: int = 42) -> LaidOutWorkload:
    """Instantiate a workload (by name or spec) on a kernel."""
    if isinstance(spec, str):
        spec = catalog.spec(spec)
    return LaidOutWorkload(spec, kernel, seed=seed)


def run_workload(workload: Union[str, WorkloadSpec], mmu_name: str,
                 accesses: int = 100_000, warmup: int = 20_000,
                 config: Optional[SystemConfig] = None,
                 seed: int = 42,
                 interval: Optional[int] = None) -> SimulationResult:
    """Simulate one (workload, MMU) point on a fresh system.

    ``baseline_thp`` runs on a transparent-huge-page kernel (2 MB-aligned
    eager allocations); every other configuration uses the standard one.
    ``interval`` enables windowed stat series (see :mod:`repro.obs`).
    """
    from repro.exec import ExperimentPlan, Job

    job = Job(workload=workload, mmu=mmu_name, config=config,
              accesses=accesses, warmup=warmup, seed=seed, interval=interval)
    return ExperimentPlan([job]).run().result(job)


def compare_configs(workload: Union[str, WorkloadSpec],
                    mmu_names: Iterable[str] = MMU_CONFIGS,
                    accesses: int = 100_000, warmup: int = 20_000,
                    config: Optional[SystemConfig] = None,
                    seed: int = 42,
                    interval: Optional[int] = None) -> ComparisonRow:
    """Run one workload under several MMU configurations."""
    from repro.exec import ExperimentPlan, Job

    if isinstance(workload, str):
        name = workload
    else:
        name = workload.name
    jobs = {mmu_name: Job(workload=workload, mmu=mmu_name, config=config,
                          accesses=accesses, warmup=warmup, seed=seed,
                          interval=interval)
            for mmu_name in mmu_names}
    outcomes = ExperimentPlan(jobs.values()).run()
    results: Dict[str, SimulationResult] = {
        mmu_name: outcomes.result(job) for mmu_name, job in jobs.items()}
    return ComparisonRow(name, results)
