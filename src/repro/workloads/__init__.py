"""Synthetic-but-calibrated workload generation.

Trace analysis (:mod:`repro.workloads.analysis`) and the trace file
format (:mod:`repro.workloads.tracefile`) are imported by module path.
"""

from repro.workloads.catalog import (
    CACHE_FRIENDLY,
    FIG4_WORKLOADS,
    MEMORY_INTENSIVE,
    SYNONYM_WORKLOADS,
    TABLE3_WORKLOADS,
    all_specs,
    names,
    spec,
)
from repro.workloads.patterns import build_pattern
from repro.workloads.spec import (
    LaidOutWorkload,
    PatternMix,
    SharingSpec,
    WorkloadSpec,
)
from repro.workloads.trace import TraceRecord

__all__ = [
    "CACHE_FRIENDLY",
    "FIG4_WORKLOADS",
    "MEMORY_INTENSIVE",
    "SYNONYM_WORKLOADS",
    "TABLE3_WORKLOADS",
    "all_specs",
    "names",
    "spec",
    "build_pattern",
    "LaidOutWorkload",
    "PatternMix",
    "SharingSpec",
    "WorkloadSpec",
    "TraceRecord",
]
