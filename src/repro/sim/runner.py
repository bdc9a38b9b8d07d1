"""One-call experiment helpers used by examples, tests and benchmarks.

``run_workload`` builds a fresh kernel, lays out the named workload,
constructs the requested MMU configuration, and simulates — so every
(workload, configuration) data point is independent and reproducible.

All of these helpers are thin *plan builders* over the execution engine
(:mod:`repro.exec`): they collect frozen :class:`~repro.exec.job.Job`
descriptions into an :class:`~repro.exec.plan.ExperimentPlan` and run
it through an executor.  Every helper therefore accepts the engine's
``executor`` (e.g. ``ParallelExecutor(workers=4)`` to fan the
independent points across processes), ``cache`` (a ``ResultCache`` so
reruns only simulate changed points), ``tracer`` (one shared event
stream, serial only) and ``trace_spec`` (one trace shard per job).
Defaults — serial, uncached, untraced — simulate each point in turn in
this process.  Progress callbacks, metrics and heartbeats are
``ExperimentPlan.run`` arguments.

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

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from repro.common.params import SystemConfig
from repro.core.conventional import ConventionalMmu
from repro.core.hybrid import HybridMmu
from repro.core.ideal import IdealMmu
from repro.core.mmu_base import MmuBase
from repro.osmodel.kernel import Kernel
from repro.sim.results import ComparisonRow, SimulationResult
from repro.workloads import catalog
from repro.workloads.spec import LaidOutWorkload, WorkloadSpec

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache
    from repro.obs.tracer import Tracer, TraceSpec

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
                 interval: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 trace_spec: Optional[TraceSpec] = None,
                 executor=None,
                 cache: Optional[ResultCache] = None) -> SimulationResult:
    """Simulate one (workload, MMU) point on a fresh system.

    ``baseline_thp`` runs on a transparent-huge-page kernel (2 MB-aligned
    eager allocations); every other configuration uses the standard one.
    ``interval`` and ``tracer`` enable windowed stat series and pipeline
    event tracing (see :mod:`repro.obs`); both default to off.
    """
    from repro.exec import ExperimentPlan, Job

    job = Job(workload=workload, mmu=mmu_name, config=config,
              accesses=accesses, warmup=warmup, seed=seed, interval=interval)
    results = ExperimentPlan([job]).run(executor=executor, cache=cache,
                                        tracer=tracer, trace_spec=trace_spec)
    return results.result(job)


def compare_configs(workload: Union[str, WorkloadSpec],
                    mmu_names: Iterable[str] = MMU_CONFIGS,
                    accesses: int = 100_000, warmup: int = 20_000,
                    config: Optional[SystemConfig] = None,
                    seed: int = 42,
                    interval: Optional[int] = None,
                    tracer: Optional[Tracer] = None,
                    trace_spec: Optional[TraceSpec] = None,
                    executor=None,
                    cache: Optional[ResultCache] = None) -> ComparisonRow:
    """Run one workload under several MMU configurations.

    A shared ``tracer`` records every configuration's events into one
    stream; the engine brackets each run with a ``run_start`` mark so
    the stream stays attributable.
    """
    from repro.exec import ExperimentPlan, Job

    if isinstance(workload, str):
        name = workload
    else:
        name = workload.name
    jobs = {mmu_name: Job(workload=workload, mmu=mmu_name, config=config,
                          accesses=accesses, warmup=warmup, seed=seed,
                          interval=interval)
            for mmu_name in mmu_names}
    plan = ExperimentPlan(jobs.values())
    outcomes = plan.run(executor=executor, cache=cache, tracer=tracer,
                        trace_spec=trace_spec)
    results: Dict[str, SimulationResult] = {
        mmu_name: outcomes.result(job) for mmu_name, job in jobs.items()}
    return ComparisonRow(name, results)


def sweep_delayed_tlb(workload: Union[str, WorkloadSpec],
                      entry_counts: Iterable[int],
                      accesses: int = 100_000, warmup: int = 20_000,
                      seed: int = 42,
                      interval: Optional[int] = None,
                      tracer: Optional[Tracer] = None,
                      trace_spec: Optional[TraceSpec] = None,
                      executor=None,
                      cache: Optional[ResultCache] = None
                      ) -> List[SimulationResult]:
    """Figure 4 helper: hybrid+delayed-TLB across TLB sizes, each point
    tagged ``delayed_tlb.entries``."""
    from repro.exec import ExperimentPlan
    from repro.sim.sweep import grid_jobs

    jobs = grid_jobs(workload, "hybrid_tlb",
                     {"delayed_tlb.entries": list(entry_counts)},
                     SystemConfig(), accesses, warmup, seed, interval)
    plan = ExperimentPlan(jobs)
    outcomes = plan.run(executor=executor, cache=cache, tracer=tracer,
                        trace_spec=trace_spec)
    return [outcomes.result(job) for job in jobs]
