"""Trace-driven simulation drivers and experiment helpers.

Multiprogramming (:mod:`repro.sim.scheduler`), parameter sweeps
(:mod:`repro.sim.sweep`) and text rendering (:mod:`repro.sim.report`)
are imported by module path.
"""

from repro.sim.results import ComparisonRow, SimulationResult, geometric_mean
from repro.sim.runner import (
    MMU_CONFIGS,
    PRIOR_CONFIGS,
    build_mmu,
    compare_configs,
    lay_out,
    run_workload,
)
from repro.sim.simulator import Simulator

__all__ = [
    "ComparisonRow",
    "SimulationResult",
    "geometric_mean",
    "MMU_CONFIGS",
    "PRIOR_CONFIGS",
    "build_mmu",
    "compare_configs",
    "lay_out",
    "run_workload",
    "Simulator",
]
