"""Observability layer: event tracing, histograms, interval stats, manifests.

The simulator's aggregate counters answer *how many*; this package answers
*where* and *when*.  Importing it loads only the modules the simulator
itself uses; the offline and live tools load when imported by name.

Loaded with the simulator (and re-exported here):

* :mod:`repro.obs.tracer`    — typed per-access pipeline events with
  sampling, a bounded ring buffer, and a JSONL sink.  The disabled path
  (:data:`~repro.obs.tracer.NULL_TRACER`) costs one attribute check per
  probe site.
* :mod:`repro.obs.histogram` — log2-bucketed distributions for access
  latency, walk depth, and filter occupancy.
* :mod:`repro.obs.interval`  — windowed delta snapshots of every stat
  counter, turning end-of-run aggregates into time series.
* :mod:`repro.obs.manifest`  — run provenance (config hash, seed,
  workload, package version, host) attached to every result.

Tools, imported by module path:

* :mod:`repro.obs.traceview` — the read side: offline analytics over
  JSONL traces (run splitting, cycle attribution, per-stage histograms,
  hit-level mix, top-N slowest accesses).
* :mod:`repro.obs.aggregate` — plan-level merge of per-job histograms
  and interval series, so parallel profiles equal serial ones.
* :mod:`repro.obs.metrics`   — live telemetry: a thread-safe labeled
  metrics registry with Prometheus text exposition, JSONL snapshot
  logging, and an optional stdlib ``/metrics`` HTTP endpoint.
* :mod:`repro.obs.heartbeat` — worker heartbeats over a queue, the
  parent-side monitor with stale-worker detection, and the ``--live``
  status line.
* :mod:`repro.obs.store`     — the cross-run SQLite store behind
  ``repro db``: every ingested run's manifest and final metrics,
  queryable and trendable across history.
"""

from repro.obs.histogram import Histogram
from repro.obs.interval import IntervalRecorder
from repro.obs.manifest import RunManifest
from repro.obs.tracer import Tracer, TraceSpec

__all__ = [
    "Histogram",
    "IntervalRecorder",
    "RunManifest",
    "Tracer",
    "TraceSpec",
]
