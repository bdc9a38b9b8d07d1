"""The regression gate: compare two baseline documents, report, verdict.

Every metric has a *direction* (IPC up is good, MPKI up is bad); a
metric has **regressed** when it moved in the bad direction by more than
the threshold percentage.  Model metrics are deterministic, so a fresh
re-record against an unchanged tree compares exactly equal; wall-clock
``seconds`` are noisy and therefore reported but not gated unless a
separate time threshold is given.

The ``meta`` block (host, Python, timestamps, git SHA) never enters the
comparison — it identifies a record, it does not describe the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Version tag of :meth:`GateReport.to_json_dict` (``repro bench check
#: --json-report``).
GATE_REPORT_SCHEMA = "repro.bench.report/v1"

#: Metric direction: +1 = higher is better, -1 = lower is better.
METRIC_DIRECTIONS: Dict[str, int] = {
    "ipc": +1,
    "tlb_bypass_rate": +1,
    "cycles": -1,
    "llc_miss_rate": -1,
    "delayed_tlb_mpki": -1,
    "seconds": -1,
}


@dataclass
class MetricDelta:
    """One (benchmark, metric) comparison."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    change_pct: float          # signed; + means the value increased
    regressed: bool            # moved the bad way past the threshold
    improved: bool             # moved the good way past the threshold
    gated: bool                # participates in the exit-code verdict
    #: Recorded values of this metric across prior ingested runs
    #: (oldest → newest), filled by :func:`attach_history` when a
    #: cross-run store is in play — the gate's one-baseline view,
    #: widened to a trajectory.
    history: Optional[List[float]] = None

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSED" if self.gated else "regressed (ungated)"
        if self.improved:
            return "improved"
        return "ok"

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "benchmark": self.benchmark, "metric": self.metric,
            "baseline": self.baseline, "current": self.current,
            "change_pct": self.change_pct, "regressed": self.regressed,
            "improved": self.improved, "gated": self.gated,
            "status": self.status,
        }
        if self.history is not None:
            doc["history"] = list(self.history)
        return doc


@dataclass
class GateReport:
    """The full outcome of one baseline-vs-current comparison."""

    threshold_pct: float
    seconds_threshold_pct: Optional[float]
    deltas: List[MetricDelta] = field(default_factory=list)
    #: Baseline benchmarks with no counterpart in the current document.
    missing: List[str] = field(default_factory=list)
    #: Current benchmarks the baseline has never seen.
    added: List[str] = field(default_factory=list)
    baseline_sha: Optional[str] = None
    current_sha: Optional[str] = None

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed and d.gated]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": GATE_REPORT_SCHEMA,
            "ok": self.ok,
            "threshold_pct": self.threshold_pct,
            "seconds_threshold_pct": self.seconds_threshold_pct,
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "regressions": len(self.regressions),
            "deltas": [d.to_dict() for d in self.deltas],
            "missing": list(self.missing),
            "added": list(self.added),
        }

    def to_html(self) -> str:
        """This report as a standalone self-contained HTML page (the
        ``repro report bench`` rendering — inline CSS/SVG, no external
        references)."""
        from repro.report import build_bench_report_page

        return build_bench_report_page(self.to_json_dict())

    def to_markdown(self) -> str:
        verdict = ("PASS" if self.ok
                   else f"FAIL — {len(self.regressions)} regression(s)")
        lines = [
            "# Benchmark regression report",
            "",
            f"**Verdict: {verdict}** "
            f"(model-metric threshold {self.threshold_pct:g} %"
            + (f", seconds threshold {self.seconds_threshold_pct:g} %"
               if self.seconds_threshold_pct is not None
               else ", seconds reported but not gated") + ")",
            "",
        ]
        if self.baseline_sha or self.current_sha:
            lines += [f"baseline `{self.baseline_sha or 'unknown'}` → "
                      f"current `{self.current_sha or 'unknown'}`", ""]
        with_history = any(d.history for d in self.deltas)
        header = "| benchmark | metric | baseline | current | Δ % | status |"
        rule = "|---|---|---|---|---|---|"
        if with_history:
            header += " history |"
            rule += "---|"
        lines += [header, rule]
        for d in sorted(self.deltas,
                        key=lambda d: (not d.regressed, d.benchmark, d.metric)):
            change = ("inf" if math.isinf(d.change_pct)
                      else f"{d.change_pct:+.2f}")
            row = (f"| {d.benchmark} | {d.metric} | {d.baseline:.6g} "
                   f"| {d.current:.6g} | {change} | {d.status} |")
            if with_history:
                row += (" " + _render_history(d.history) + " |"
                        if d.history else " — |")
            lines.append(row)
        blank = " — |" if with_history else ""
        for name in self.missing:
            lines.append(
                f"| {name} | — | — | — | — | missing from current |" + blank)
        for name in self.added:
            lines.append(
                f"| {name} | — | — | — | — | new (no baseline) |" + blank)
        return "\n".join(lines)


def _render_history(values: List[float]) -> str:
    """Spark bar + oldest→newest values, the markdown history cell.

    Uses the shared :func:`repro.sim.report.spark_line`, so single-point
    and flat histories render mid-height (a level trend), matching
    ``repro db trend``.
    """
    from repro.sim.report import spark_line

    return f"{spark_line(values)} " + "→".join(f"{v:.4g}" for v in values)


def attach_history(report: GateReport, current: Dict[str, Any],
                   store: Any, limit: int = 5) -> None:
    """Annotate a report's deltas with cross-run history.

    ``store`` is duck-typed on ``metric_history(workload, mmu, metric,
    limit)`` (a :class:`repro.obs.store.MetricsStore`); benchmarks are
    matched to store rows through the workload/MMU the ``current``
    document records per entry.  Call this *before* ingesting the
    current document, so the history shows only prior runs.
    """
    index = {entry.get("name"): entry
             for entry in current.get("benchmarks", [])}
    for delta in report.deltas:
        entry = index.get(delta.benchmark)
        if entry is None or "workload" not in entry:
            continue
        values = store.metric_history(entry["workload"],
                                      entry.get("mmu", "-"),
                                      delta.metric, limit=limit)
        if values:
            delta.history = values


def _entry_index(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {entry.get("name", f"#{i}"): entry
            for i, entry in enumerate(doc.get("benchmarks", []))}


def _compare_one(name: str, metric: str, base: float, cur: float,
                 threshold: float, gated: bool) -> MetricDelta:
    if base == 0:
        change = 0.0 if cur == 0 else math.copysign(math.inf, cur)
    else:
        change = 100.0 * (cur - base) / abs(base)
    direction = METRIC_DIRECTIONS.get(metric, -1)
    bad = change * direction < 0          # moved against the direction
    beyond = abs(change) > threshold
    return MetricDelta(benchmark=name, metric=metric, baseline=base,
                       current=cur, change_pct=change,
                       regressed=bad and beyond,
                       improved=(not bad) and beyond and change != 0.0,
                       gated=gated)


def compare_baselines(baseline: Dict[str, Any], current: Dict[str, Any],
                      threshold_pct: float = 10.0,
                      seconds_threshold_pct: Optional[float] = None
                      ) -> GateReport:
    """Compare two ``repro.bench/v2`` documents, metric by metric.

    ``meta`` is ignored on both sides.  Benchmarks match by name; a
    baseline benchmark absent from ``current`` is listed as missing (and
    fails the gate — a silently dropped benchmark is how trajectories
    rot), new current-only benchmarks are informational.
    """
    report = GateReport(
        threshold_pct=threshold_pct,
        seconds_threshold_pct=seconds_threshold_pct,
        baseline_sha=(baseline.get("meta") or {}).get("git_sha"),
        current_sha=(current.get("meta") or {}).get("git_sha"),
    )
    base_entries = _entry_index(baseline)
    cur_entries = _entry_index(current)
    report.added = sorted(set(cur_entries) - set(base_entries))
    for name, base_entry in base_entries.items():
        cur_entry = cur_entries.get(name)
        if cur_entry is None:
            report.missing.append(name)
            continue
        base_metrics = base_entry.get("metrics", {})
        cur_metrics = cur_entry.get("metrics", {})
        for metric in base_metrics:
            if metric not in cur_metrics:
                continue
            report.deltas.append(_compare_one(
                name, metric, float(base_metrics[metric]),
                float(cur_metrics[metric]), threshold_pct, gated=True))
        if "seconds" in base_entry and "seconds" in cur_entry:
            report.deltas.append(_compare_one(
                name, "seconds", float(base_entry["seconds"]),
                float(cur_entry["seconds"]),
                seconds_threshold_pct
                if seconds_threshold_pct is not None else threshold_pct,
                gated=seconds_threshold_pct is not None))
    if report.missing:
        # A vanished benchmark is a gated failure: register a sentinel
        # delta so `ok` reflects it without special-casing consumers.
        for name in report.missing:
            report.deltas.append(MetricDelta(
                benchmark=name, metric="(present)", baseline=1.0,
                current=0.0, change_pct=-100.0, regressed=True,
                improved=False, gated=True))
    return report
