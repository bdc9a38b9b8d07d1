"""Live metrics: a labeled registry, Prometheus exposition, snapshots.

The :class:`MetricsRegistry` is the pull-based side of the telemetry
layer: structures and the execution engine *update* counters, gauges and
log2 histograms (each series addressed by a metric name plus a frozen
label set), and consumers *read* consistent snapshots — as a nested
dict, as Prometheus text format (:func:`render_prometheus`), as
appended JSONL (:class:`SnapshotLog`), or over HTTP
(:class:`MetricsServer`, ``/metrics`` on the package's one-thread
listener, :class:`~repro.common.httpd.HttpListener`).

Overhead discipline mirrors the tracer: every probe site checks
``metrics.enabled`` (a plain attribute) before doing any work, and
:data:`NULL_METRICS` keeps the disabled path to one attribute fetch and
one branch.  The simulator never touches the registry: its pulse hook
sends a heartbeat every ``pulse.every`` timed accesses, and the
:class:`~repro.obs.heartbeat.HeartbeatMonitor` thread turns the beats
into per-worker gauges.

Determinism: the **final** registry contents for a plan are produced by
:func:`fold_plan`, a pure function of the plan's outcomes applied in
plan (first-add) order.  Live mid-run values — the heartbeat-fed gauges,
serial or parallel — are wiped by the fold, so the final snapshot is
byte-identical however the jobs were scheduled (pinned by
``tests/test_metrics.py``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import (IO, Any, Dict, Iterable, List, Mapping, Optional, Tuple,
                    Union)

from repro.common.httpd import HttpListener, Response, error_response
from repro.obs.histogram import Histogram

#: Version tag of the JSONL snapshot document layout.
METRICS_SCHEMA = "repro.metrics/v1"

#: A frozen, sorted label set — the per-series key within a family.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """One (family, label-set) time series."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelKey) -> None:
        self.labels = labels
        self.value: Union[int, float] = 0


class MetricFamily:
    """A named metric plus its per-label-set children.

    Families are created through the registry (:meth:`MetricsRegistry.
    counter` / ``gauge`` / ``histogram``) and share its lock; the
    update methods — :meth:`inc`, :meth:`set`, :meth:`observe`,
    :meth:`merge_snapshot` — take it for the duration of one update, so
    concurrent writers (the heartbeat monitor thread, the main thread)
    never interleave half-applied values.
    """

    def __init__(self, name: str, kind: str, help: str,
                 lock: threading.Lock) -> None:
        self.name = name
        self.kind = kind                   # "counter" | "gauge" | "histogram"
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, Any] = {}

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def inc(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        """Add ``amount`` to the counter child for ``labels``."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(key)
            series.value += amount

    def set(self, value: Union[int, float], **labels: Any) -> None:
        """Set the gauge child for ``labels`` to ``value``."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(key)
            series.value = value

    def observe(self, value: int, **labels: Any) -> None:
        """Record one sample into the histogram child for ``labels``."""
        key = _label_key(labels)
        with self._lock:
            hist = self._series.get(key)
            if hist is None:
                hist = self._series[key] = Histogram(self.name)
            hist.record(value)

    def merge_snapshot(self, snapshot: Dict[str, Any],
                       **labels: Any) -> None:
        """Merge a :meth:`Histogram.snapshot` dict into the child for
        ``labels`` — how per-job result histograms fold into the plan's
        live registry without replaying every sample."""
        key = _label_key(labels)
        incoming = Histogram.from_snapshot(self.name, snapshot)
        with self._lock:
            hist = self._series.get(key)
            if hist is None:
                self._series[key] = incoming
            else:
                hist.merge(incoming)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, **labels: Any) -> Union[int, float]:
        """Current value of one counter/gauge child (0 when absent)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.value if series is not None else 0

    def series(self) -> List[Tuple[LabelKey, Any]]:
        """``(labels, value-or-histogram)`` pairs in sorted label order.

        Histograms come back as **copies taken under the lock**: a
        scraper rendering buckets/sum/count while workers keep
        observing would otherwise read torn state (a bucket increment
        without its ``count``), and the Prometheus invariant
        ``le="+Inf" == _count`` would flicker.  Counter/gauge values
        are plain numbers, immutable once read.
        """
        with self._lock:
            items = sorted(self._series.items())
            if self.kind == "histogram":
                return [(key, hist.copy()) for key, hist in items]
            return [(key, series.value) for key, series in items]

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)


class MetricsRegistry:
    """Thread-safe collection of metric families, pull-based.

    One lock guards the whole registry: updates are single dict/int
    operations, so contention is negligible next to simulation work,
    and a snapshot taken under the lock is a consistent cut across
    every family.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------ #
    # Family constructors (idempotent)
    # ------------------------------------------------------------------ #

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, self._lock)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        """A monotonically increasing metric (``inc``)."""
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        """A set-to-current-value metric (``set``)."""
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "") -> MetricFamily:
        """A log2-bucketed distribution metric (``observe``)."""
        return self._family(name, "histogram", help)

    # ------------------------------------------------------------------ #
    # Reads / lifecycle
    # ------------------------------------------------------------------ #

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic nested-dict view of every family.

        Layout: ``{name: {"kind", "help", "series": [{"labels", "value"}
        | {"labels", "histogram"}]}}`` with families and label sets in
        sorted order, so two registries with equal contents snapshot to
        byte-identical JSON.
        """
        out: Dict[str, Any] = {}
        for family in self.families():
            rows: List[Dict[str, Any]] = []
            for labels, value in family.series():
                row: Dict[str, Any] = {"labels": dict(labels)}
                if family.kind == "histogram":
                    row["histogram"] = value.snapshot()
                else:
                    row["value"] = value
                rows.append(row)
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "series": rows}
        return out

    def reset(self) -> None:
        """Drop every family and series (the fold starts from here)."""
        with self._lock:
            self._families.clear()

    def remove(self, name: str) -> None:
        """Drop one family if present — how the heartbeat monitor wipes
        its transient ``repro_worker_*`` gauges on stop, so beats that
        drain after the deterministic fold cannot leak into the final
        snapshot."""
        with self._lock:
            self._families.pop(name, None)


class NullMetrics:
    """The disabled registry: probe sites see ``enabled == False`` and
    every update is a no-op, so telemetry-off runs pay one attribute
    check per site (same discipline as :data:`~repro.obs.tracer.
    NULL_TRACER`)."""

    enabled = False

    def counter(self, name: str, help: str = "") -> "NullMetrics":
        return self

    gauge = counter
    histogram = counter

    def inc(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        return None

    def set(self, value: Union[int, float], **labels: Any) -> None:
        return None

    def observe(self, value: int, **labels: Any) -> None:
        return None

    def merge_snapshot(self, snapshot: Dict[str, Any],
                       **labels: Any) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def reset(self) -> None:
        return None

    def remove(self, name: str) -> None:
        return None


#: Shared do-nothing registry, the default everywhere.
NULL_METRICS = NullMetrics()


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #

def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text format: backslash, quote, newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_labels(labels: Iterable[Tuple[str, str]],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4).

    Families sorted by name, series by label set; histograms expose
    cumulative ``_bucket{le=...}`` series on the log2 upper bounds plus
    ``_sum`` and ``_count``.  Deterministic: equal registries render to
    byte-identical text.
    """
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in family.series():
            if family.kind != "histogram":
                lines.append(f"{family.name}{_render_labels(labels)} "
                             f"{_format_value(value)}")
                continue
            cumulative = 0
            for i, count in enumerate(value.counts):
                if not count:
                    continue
                cumulative += count
                hi = Histogram.bucket_bounds(i)[1]
                lines.append(
                    f"{family.name}_bucket"
                    f"{_render_labels(labels, (('le', str(hi)),))} "
                    f"{cumulative}")
            lines.append(
                f"{family.name}_bucket"
                f"{_render_labels(labels, (('le', '+Inf'),))} {value.count}")
            lines.append(f"{family.name}_sum{_render_labels(labels)} "
                         f"{value.total}")
            lines.append(f"{family.name}_count{_render_labels(labels)} "
                         f"{value.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# JSONL snapshot log
# ---------------------------------------------------------------------- #

class SnapshotLog:
    """Appends timestamped registry snapshots as JSON Lines.

    One line per :meth:`append` call: ``{"schema", "ts", "metrics"}``.
    The heartbeat monitor drives this periodically during a live run;
    the CLI appends one final snapshot after the fold, so the last line
    of the file is always the deterministic end-of-plan state.
    """

    def __init__(self, sink: Union[str, Path, IO[str]]) -> None:
        if isinstance(sink, (str, Path)):
            self._sink: Optional[IO[str]] = open(sink, "a", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self.appended = 0

    def append(self, registry: MetricsRegistry,
               ts: Optional[float] = None) -> None:
        if self._sink is None:
            return
        doc = {"schema": METRICS_SCHEMA,
               "ts": time.time() if ts is None else ts,
               "metrics": registry.snapshot()}
        self._sink.write(json.dumps(doc, sort_keys=True) + "\n")
        self._sink.flush()
        self.appended += 1

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None

    def __enter__(self) -> "SnapshotLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# /metrics HTTP endpoint
# ---------------------------------------------------------------------- #

class MetricsServer(HttpListener):
    """Minimal scrape endpoint on a background thread.

    ``GET /metrics`` returns the Prometheus text rendering;
    ``GET /metrics.json`` the nested-dict snapshot.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`port`), which is what the
    tests use.  The server holds only a reference to the registry — it
    renders at request time, so scrapes always see the current state.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        def route(method: str, target: str, body: bytes) -> Response:
            path = target.split("?")[0]
            if path == "/metrics":
                return (200, render_prometheus(registry).encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8", None)
            if path == "/metrics.json":
                return (200, json.dumps(registry.snapshot(), sort_keys=True)
                        .encode("utf-8"), "application/json", None)
            return error_response(404, "try /metrics")

        super().__init__(route, host, port, name="repro-metrics")


# ---------------------------------------------------------------------- #
# Deterministic folding of plan outcomes
# ---------------------------------------------------------------------- #

def fold_result(registry: MetricsRegistry, result: Any,
                fingerprint: str) -> None:
    """Fold one ``SimulationResult`` into the registry.

    Additive quantities become counters labeled ``{workload, mmu}`` (a
    sweep's points sum, like any multi-instance Prometheus target);
    per-job quantities become gauges labeled ``{workload, mmu, job}``
    with the job fingerprint; every structure counter in ``result.
    stats`` lands under ``repro_stat_total{group, counter, ...}`` — the
    hot-path instrumentation (synonym filter probes, delayed-TLB
    misses, cache hits) exported without touching the hot path itself.

    Only model-deterministic quantities are folded — wall-clock
    durations would break the serial-vs-parallel byte-identity of the
    final snapshot; they live in the run manifest and the cross-run
    store instead.
    """
    labels = {"workload": result.workload, "mmu": result.mmu}
    registry.counter("repro_accesses_total",
                     "timed memory accesses simulated").inc(
        result.accesses, **labels)
    registry.counter("repro_instructions_total",
                     "instructions simulated").inc(
        result.instructions, **labels)
    registry.counter("repro_cycles_total", "simulated cycles").inc(
        result.cycles, **labels)
    registry.gauge("repro_ipc", "instructions per cycle, per job").set(
        result.ipc, job=fingerprint, **labels)
    stat = registry.counter("repro_stat_total",
                            "structure counters by group")
    for group, counters in sorted(result.stats.items()):
        for counter, value in sorted(counters.items()):
            stat.inc(value, group=group, counter=counter, **labels)
    cycles = registry.counter("repro_stage_cycles_total",
                              "cycle attribution by pipeline stage")
    for stage, value in sorted(result.cycle_breakdown.items()):
        cycles.inc(value, stage=stage, **labels)
    latency = registry.histogram("repro_latency_cycles",
                                 "per-stage latency distributions")
    for name, snap in sorted(result.histograms.items()):
        latency.merge_snapshot(snap, stage=name, **labels)


def fold_plan(registry: MetricsRegistry, jobs: Iterable[Any],
              outcomes: Mapping[str, Any],
              cached: Iterable[str]) -> None:
    """Rebuild the registry from a finished plan's outcomes.

    Starts from :meth:`MetricsRegistry.reset`, then folds every outcome
    in plan order — so the final registry state is a pure function of
    ``(jobs, outcomes, cached)`` and byte-identical between serial and
    parallel execution, the live heartbeat gauges included (they are
    wiped by the reset).
    """
    from repro.exec.job import JobError

    registry.reset()
    cached_set = set(cached)
    jobs_total = registry.counter("repro_jobs_total",
                                  "plan outcomes by status")
    for job in jobs:
        fingerprint = job.fingerprint()
        outcome = outcomes[fingerprint]
        if isinstance(outcome, JobError):
            jobs_total.inc(status="error")
            continue
        jobs_total.inc(
            status="cached" if fingerprint in cached_set else "ran")
        fold_result(registry, outcome, fingerprint)
