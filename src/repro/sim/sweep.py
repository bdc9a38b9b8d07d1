"""Generic configuration sweeps.

``with_overrides`` rebuilds a (frozen, nested) :class:`SystemConfig`
with dotted-path field overrides, ``grid_jobs`` makes one frozen
``Job`` per point of a grid of such fields, tagged with the point's
values, and ``sweep_grid`` runs those jobs serially — the
generalization of the paper's Figure 4 (delayed-TLB entries) and
Figure 7 (index-cache size) sweeps to every parameter in the system.

``grid_jobs`` is the one sweep job builder: ``sweep_grid``, ``repro
sweep`` and ``repro profile --sizes`` all use it.  A caller that wants
a process pool, a result cache or a trace runs its jobs through
:meth:`~repro.exec.plan.ExperimentPlan.run` with those options (see
``docs/execution.md``).

Example::

    rows = sweep_grid("gups", "hybrid_segments",
                      {"segments.segment_cache_entries": [16, 32, 128, 512]})

A segment cache holds at least one entry; a run without one is the
``hybrid_segments_nosc`` MMU configuration.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.common.params import SystemConfig
from repro.exec.job import Job
from repro.exec.plan import ExperimentPlan
from repro.workloads.spec import WorkloadSpec


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


def sweep_grid(workload: Union[str, WorkloadSpec], mmu_name: str,
               grid: Mapping[str, Sequence[Any]],
               base_config: SystemConfig | None = None,
               accesses: int = 30_000, warmup: int = 10_000,
               seed: int = 42,
               interval: Optional[int] = None) -> List[Dict[str, Any]]:
    """Cartesian-product sweep over several fields.

    Returns a list of ``{"params": {...}, "result": SimulationResult}``
    rows in grid order.
    """
    jobs = grid_jobs(workload, mmu_name, grid, base_config or SystemConfig(),
                     accesses, warmup, seed, interval)
    outcomes = ExperimentPlan(jobs).run()
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
