"""Generic configuration sweeps.

``with_overrides`` rebuilds a (frozen, nested) :class:`SystemConfig`
with dotted-path field overrides, and ``sweep_config`` runs one workload
across a sequence of values of any such field — the generalization of
the paper's Figure 4 (delayed-TLB entries) and Figure 7 (index-cache
size) sweeps to every parameter in the system.

Both sweeps are plan builders over the execution engine
(:mod:`repro.exec`): ``grid_jobs`` makes each point a frozen ``Job``
tagged with its field values, identical points dedupe, and the
``executor``/``cache`` arguments allow parallel execution and
fingerprint-keyed result reuse (see ``docs/execution.md``).
``sweep_config`` is ``sweep_grid`` over one field; the CLI's delayed-TLB
sweeps and ``sweep_delayed_tlb`` build their jobs with ``grid_jobs``.

Example::

    results = sweep_config("gups", "hybrid_segments",
                           "segments.segment_cache_entries",
                           [16, 32, 128, 512])

A segment cache holds at least one entry; a run without one is the
``hybrid_segments_nosc`` MMU configuration.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Union)

from repro.common.params import SystemConfig
from repro.exec.job import Job
from repro.exec.plan import ExperimentPlan
from repro.sim.results import SimulationResult
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache
    from repro.obs.tracer import Tracer, TraceSpec


def with_overrides(config: SystemConfig,
                   overrides: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a frozen nested config with dotted-path overrides.

    Paths name dataclass fields, e.g. ``"llc.size_bytes"`` or
    ``"segments.index_cache_size"``.  Unknown paths raise ``AttributeError``
    so typos fail loudly.
    """
    result = config
    for path, value in overrides.items():
        parts = path.split(".")
        result = _replace_path(result, parts, value)
    return result


def _replace_path(obj: Any, parts: Sequence[str], value: Any) -> Any:
    field_name = parts[0]
    if not hasattr(obj, field_name):
        raise AttributeError(
            f"{type(obj).__name__} has no field {field_name!r}")
    if len(parts) == 1:
        return dataclasses.replace(obj, **{field_name: value})
    child = getattr(obj, field_name)
    return dataclasses.replace(
        obj, **{field_name: _replace_path(child, parts[1:], value)})


def sweep_config(workload: Union[str, WorkloadSpec], mmu_name: str,
                 field_path: str, values: Iterable[Any],
                 base_config: SystemConfig | None = None,
                 accesses: int = 30_000, warmup: int = 10_000,
                 seed: int = 42,
                 interval: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 trace_spec: Optional[TraceSpec] = None,
                 executor=None,
                 cache: Optional[ResultCache] = None
                 ) -> Dict[Any, SimulationResult]:
    """Run ``workload`` under ``mmu_name`` for each value of one field."""
    rows = sweep_grid(workload, mmu_name, {field_path: list(values)},
                      base_config, accesses=accesses, warmup=warmup,
                      seed=seed, interval=interval, tracer=tracer,
                      trace_spec=trace_spec, executor=executor, cache=cache)
    return {row["params"][field_path]: row["result"] for row in rows}


def sweep_grid(workload: Union[str, WorkloadSpec], mmu_name: str,
               grid: Mapping[str, Sequence[Any]],
               base_config: SystemConfig | None = None,
               accesses: int = 30_000, warmup: int = 10_000,
               seed: int = 42,
               interval: Optional[int] = None,
               tracer: Optional[Tracer] = None,
               trace_spec: Optional[TraceSpec] = None,
               executor=None,
               cache: Optional[ResultCache] = None
               ) -> List[Dict[str, Any]]:
    """Cartesian-product sweep over several fields.

    Returns a list of ``{"params": {...}, "result": SimulationResult}``
    rows in grid order.
    """
    jobs = grid_jobs(workload, mmu_name, grid, base_config or SystemConfig(),
                     accesses, warmup, seed, interval)
    outcomes = ExperimentPlan(jobs).run(executor=executor, cache=cache,
                                        tracer=tracer, trace_spec=trace_spec)
    return [{"params": dict(job.tags), "result": outcomes.result(job)}
            for job in jobs]


def grid_jobs(workload: Union[str, WorkloadSpec], mmu_name: str,
              grid: Mapping[str, Sequence[Any]], base_config: SystemConfig,
              accesses: int, warmup: int, seed: int,
              interval: Optional[int]) -> List[Job]:
    """One job per point of ``grid``'s Cartesian product, in grid order.

    A point's config is ``base_config`` with the point's dotted-path
    overrides (a value the config rejects raises its ``ValueError``), and
    its tags, which label its ``run_start`` trace mark, are those
    ``(path, value)`` pairs.
    """
    fields = list(grid)
    return [Job(workload=workload, mmu=mmu_name,
                config=with_overrides(base_config, dict(zip(fields, combo))),
                accesses=accesses, warmup=warmup, seed=seed,
                interval=interval, tags=tuple(zip(fields, combo)))
            for combo in itertools.product(*(grid[f] for f in fields))]
