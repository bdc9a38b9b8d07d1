"""Result containers and cross-configuration comparison helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.stats import derive_ratios, mpki
from repro.obs.manifest import RunManifest

#: Version tag of the ``to_json_dict`` document layout.  Bump only on
#: incompatible changes; additive keys keep the same version.
RESULT_SCHEMA = "repro.result/v1"
#: ``repro compare --json``: one workload's results keyed by
#: configuration, with speedups normalized to the first.
COMPARE_SCHEMA = "repro.compare/v1"
#: ``repro sweep --json``: one workload's results per delayed-TLB size.
SWEEP_SCHEMA = "repro.sweep/v1"


@dataclass
class SimulationResult:
    """Everything measured in one (workload, MMU) simulation."""

    workload: str
    mmu: str
    instructions: int
    accesses: int
    cycles: float
    ipc: float
    cycle_breakdown: Dict[str, float]
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    manifest: Optional[RunManifest] = None
    interval: Optional[int] = None                 # window size (accesses)
    intervals: List[Dict[str, object]] = field(default_factory=list)
    histograms: Dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    def group(self, name: str) -> Dict[str, int]:
        return self.stats.get(name, {})

    def llc_miss_rate(self) -> float:
        hierarchy = self.group("cache_hierarchy")
        accesses = hierarchy.get("accesses", 0)
        if not accesses:
            return 0.0
        return hierarchy.get("llc_misses", 0) / accesses

    def counter(self, group: str, name: str) -> int:
        return self.group(group).get(name, 0)

    def tlb_mpki(self, group: str = "delayed_tlb") -> float:
        return mpki(self.counter(group, "misses"), self.instructions)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Normalized performance — the paper's Figure 9 metric."""
        if baseline.ipc <= 0:
            return 0.0
        return self.ipc / baseline.ipc

    # ------------------------------------------------------------------ #
    # The JSON document
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, object]:
        """Schema-stable machine-readable document of this result.

        Layout (``schema`` = :data:`RESULT_SCHEMA`): identification,
        aggregate metrics, per-stage ``cycle_breakdown``, ``stats`` with
        derived hit-rate ratios, latency ``histograms``, the provenance
        ``manifest``, and the ``intervals`` time series.
        """
        return {
            "schema": RESULT_SCHEMA,
            "workload": self.workload,
            "mmu": self.mmu,
            "instructions": self.instructions,
            "accesses": self.accesses,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "llc_miss_rate": self.llc_miss_rate(),
            "cycle_breakdown": dict(self.cycle_breakdown),
            "stats": {name: derive_ratios(group)
                      for name, group in self.stats.items()},
            "histograms": dict(self.histograms),
            "manifest": self.manifest.to_dict() if self.manifest else None,
            "interval": self.interval,
            "intervals": list(self.intervals),
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_json_dict`: rebuild a result from its
        persisted document (the :class:`repro.exec.cache.ResultCache`
        entry format).

        Derived fields — ``llc_miss_rate`` and the float ``*hit_rate``
        ratios :func:`derive_ratios` adds to ``stats`` — are dropped on
        the way in, since they are recomputed on demand; unknown keys
        are ignored for forward compatibility.  A missing required key
        raises ``ValueError`` naming it.  Round trip invariant:
        ``from_json_dict(to_json_dict(r)).to_json_dict()
        == r.to_json_dict()``.
        """
        schema = doc.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"expected a {RESULT_SCHEMA} document, got {schema!r}")
        stats = {
            name: {key: value for key, value in group.items()
                   if not (key.endswith("hit_rate")
                           and isinstance(value, float))}
            for name, group in doc.get("stats", {}).items()}
        manifest_doc = doc.get("manifest")
        try:
            return cls(
                workload=doc["workload"],
                mmu=doc["mmu"],
                instructions=doc["instructions"],
                accesses=doc["accesses"],
                cycles=doc["cycles"],
                ipc=doc["ipc"],
                cycle_breakdown=dict(doc.get("cycle_breakdown", {})),
                stats=stats,
                manifest=(RunManifest.from_dict(manifest_doc)
                          if manifest_doc else None),
                interval=doc.get("interval"),
                intervals=list(doc.get("intervals", [])),
                histograms=dict(doc.get("histograms", {})),
            )
        except KeyError as exc:
            raise ValueError(
                f"result document has no {exc.args[0]!r}") from None


@dataclass
class ComparisonRow:
    """One workload's results across a set of configurations."""

    workload: str
    results: Dict[str, SimulationResult]

    def normalized(self, baseline_key: str = "baseline") -> Dict[str, float]:
        base = self.results[baseline_key]
        return {key: result.speedup_over(base)
                for key, result in self.results.items()}


def geometric_mean(values: List[float]) -> float:
    """Geomean of positive values (the paper's cross-workload summary)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for v in filtered:
        product *= v
    return product ** (1.0 / len(filtered))
