"""The :class:`ReportBundle`: everything one report is built from.

A bundle collects the machine-readable documents the rest of the repo
already emits — ``repro.result/v1``, ``repro.compare/v1``,
``repro.sweep/v1``, ``repro.profile/v1``, ``repro.bench/v2`` baselines,
``repro.bench.report/v1`` gate reports, ``repro.trace/v1`` analytics —
plus two report-specific inputs:

* ``repro.fidelity/v1`` measurement documents: a flat map from
  scorecard claim ids (:data:`repro.report.scorecard.CLAIMS`) to
  reproduced values, for claims no standard document can express
  (energy reductions, table fractions);
* cross-run history pulled from a :class:`repro.obs.store.MetricsStore`
  (``--db``), rendered as sparklines.

``add_doc`` dispatches on each document's ``schema`` key, so callers
never need to know what kind of file they are holding; ``load_bundle``
is the file-reading front the CLI uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.bench.baseline import BENCH_SCHEMA
from repro.bench.gate import GATE_REPORT_SCHEMA
from repro.obs.aggregate import PROFILE_SCHEMA
from repro.obs.traceview import TRACE_SCHEMA
from repro.sim.results import COMPARE_SCHEMA, RESULT_SCHEMA, SWEEP_SCHEMA

FIDELITY_SCHEMA = "repro.fidelity/v1"

PathLike = Union[str, Path]
Doc = Dict[str, Any]
#: Every bundle list stores ``(document, source label)`` pairs.
Sourced = Tuple[Doc, str]


def fidelity_doc(measurements: Dict[str, float],
                 note: str = "") -> Doc:
    """Assemble a ``repro.fidelity/v1`` measurement document."""
    doc: Doc = {"schema": FIDELITY_SCHEMA,
                "measurements": {key: float(value)
                                 for key, value in measurements.items()}}
    if note:
        doc["note"] = note
    return doc


@dataclass
class ReportBundle:
    """All inputs of one report, grouped by document kind."""

    results: List[Sourced] = field(default_factory=list)
    compares: List[Sourced] = field(default_factory=list)
    sweeps: List[Sourced] = field(default_factory=list)
    profiles: List[Sourced] = field(default_factory=list)
    bench: List[Sourced] = field(default_factory=list)
    bench_reports: List[Sourced] = field(default_factory=list)
    traces: List[Sourced] = field(default_factory=list)
    #: claim id → ``(value, source label)``; later adds win.
    measurements: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: sparkline label → value series (oldest → newest).
    history: Dict[str, List[float]] = field(default_factory=dict)
    #: every source label, in the order it was added.
    sources: List[str] = field(default_factory=list)

    _DISPATCH = {
        RESULT_SCHEMA: "results",
        COMPARE_SCHEMA: "compares",
        SWEEP_SCHEMA: "sweeps",
        PROFILE_SCHEMA: "profiles",
        BENCH_SCHEMA: "bench",
        GATE_REPORT_SCHEMA: "bench_reports",
        TRACE_SCHEMA: "traces",
    }

    def __len__(self) -> int:
        return (len(self.results) + len(self.compares) + len(self.sweeps)
                + len(self.profiles) + len(self.bench)
                + len(self.bench_reports) + len(self.traces)
                + len(self.measurements))

    def add_doc(self, doc: Doc, source: str = "(inline)") -> None:
        """File one document by its ``schema``; unknown schemas raise."""
        schema = doc.get("schema")
        if schema == FIDELITY_SCHEMA:
            for key, value in (doc.get("measurements") or {}).items():
                self.measurements[key] = (float(value), source)
            self.sources.append(source)
            return
        attr = self._DISPATCH.get(schema)
        if attr is None:
            raise ValueError(f"{source}: cannot report on schema {schema!r}")
        getattr(self, attr).append((doc, source))
        self.sources.append(source)

    def add_trace_files(self, paths: Iterable[PathLike],
                        top_n: int = 5) -> None:
        """Analyze raw JSONL trace shards into one ``repro.trace/v1``
        document (via :func:`repro.obs.traceview.read_trace`)."""
        from repro.obs.traceview import read_trace

        paths = [str(p) for p in paths]
        if not paths:
            return
        view = read_trace(paths, top_n=top_n)
        self.add_doc(view.to_json_dict(paths),
                     source=", ".join(paths))

    def attach_store(self, store: Any, limit: int = 12) -> None:
        """Pull per-metric cross-run history from a metrics store.

        ``store`` is duck-typed on ``metric_names()`` / ``trend()``
        (a :class:`repro.obs.store.MetricsStore`).  One sparkline per
        recorded metric, oldest → newest, capped to ``limit`` points;
        ordering comes from the store's deterministic started-at sort,
        so the same database renders the same report regardless of the
        order runs were ingested in.
        """
        for metric in store.metric_names():
            values = [value for _, value in store.trend(metric, limit=limit)]
            if values:
                self.history[metric] = values


def load_bundle(paths: Iterable[PathLike] = (),
                trace_paths: Iterable[PathLike] = (),
                db_path: Optional[PathLike] = None) -> ReportBundle:
    """Build a bundle from files: the ``repro report build`` front."""
    bundle = ReportBundle()
    for path in map(str, paths):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: not a JSON document")
        bundle.add_doc(doc, source=path)
    bundle.add_trace_files(trace_paths)
    if db_path is not None:
        from repro.obs.store import MetricsStore

        with MetricsStore(db_path) as store:
            bundle.attach_store(store)
    return bundle
