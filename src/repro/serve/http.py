"""HTTP front end for :class:`~repro.serve.service.JobService`.

:class:`ServeServer` serves the routes below on
:class:`~repro.common.httpd.HttpListener`: one background thread
answers every connection through a ``selectors`` loop with its own
HTTP/1.1 parser.  Routes run on that loop thread, so they must not
block: :meth:`JobService.submit` queues a job or answers from a record
or the cache, never waiting on a simulation.

Routes:

* ``POST /jobs``          — submit a ``repro.job/v1`` document.
  202 + ``repro.serve.status/v1`` while queued/running, 200 when the
  answer already exists (cache hit / replay), 400 on a malformed or
  unknown-name job, 429 + ``Retry-After`` when admission control
  rejects, 503 + ``Retry-After`` while draining, 413 on an oversized
  body.
* ``GET /jobs``           — ``repro.serve.jobs/v1`` status summary.
* ``GET /jobs/<fp>``      — 200 + the ``repro.result/v1`` body once
  done (byte-identical for every poller of one fingerprint), 202 +
  status while pending, 500 + ``repro.serve.error/v1`` for a failed
  job, 404 for an unknown fingerprint.
* ``GET /healthz``        — 200 ``ok`` / 503 ``draining``.
* ``GET /metrics``        — Prometheus text of the service registry
  (``/metrics.json`` for the nested snapshot).

Every response increments ``repro_serve_http_requests_total{method,
code}`` (``method="other"`` when the request named no GET or POST).
"""

from __future__ import annotations

import json

from repro.common.httpd import (HttpListener, Response, Router,
                                error_response, json_response)
from repro.exec.job import Job
from repro.obs.metrics import render_prometheus
from repro.serve.service import (JOBS_SCHEMA, RETRY_AFTER, JobService,
                                 QueueFullError, ServiceDrainingError)

# ---------------------------------------------------------------------- #
# The service's routes
# ---------------------------------------------------------------------- #

def _make_router(service: JobService) -> Router:
    def route(method: str, target: str, body: bytes) -> Response:
        path = target.split("?")[0].rstrip("/") or "/"
        if method == "POST":
            if path != "/jobs":
                return error_response(404, "POST /jobs")
            return submit(body)
        if path == "/healthz":
            doc = service.health_doc()
            return json_response(
                503 if doc["status"] == "draining" else 200, doc)
        if path == "/metrics":
            return (200, render_prometheus(service.registry).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8", None)
        if path == "/metrics.json":
            return json_response(200, service.registry.snapshot())
        if path == "/jobs":
            return json_response(200, {
                "schema": JOBS_SCHEMA,
                "jobs": [record.status_doc()
                         for record in service.records()]})
        if path.startswith("/jobs/"):
            return get_job(path[len("/jobs/"):])
        return error_response(404, "try /jobs, /healthz or /metrics")

    def get_job(fingerprint: str) -> Response:
        record = service.record(fingerprint)
        if record is None:
            return error_response(404, f"unknown job {fingerprint!r}")
        if record.status == "done":
            return 200, record.body, "application/json", None
        if record.status == "error":
            return 500, record.body, "application/json", None
        return json_response(202, record.status_doc())

    def submit(body: bytes) -> Response:
        try:
            job = Job.from_json_dict(json.loads(body))
        except (ValueError, KeyError, TypeError) as exc:
            return error_response(400, f"bad repro.job/v1 document: {exc}")
        try:
            record, disposition = service.submit(job)
        except QueueFullError as exc:
            return error_response(429, str(exc), RETRY_AFTER)
        except ServiceDrainingError as exc:
            return error_response(503, str(exc), RETRY_AFTER)
        except ValueError as exc:
            return error_response(400, str(exc))
        return json_response(200 if record.terminal else 202,
                             record.status_doc(disposition=disposition))

    return route


class ServeServer(HttpListener):
    """The service's HTTP listener on a background thread.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`).  One loop thread answers every client; N clients
    coalesce on one in-flight job because a submission never waits on
    the simulation it queues.
    """

    def __init__(self, service: JobService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        super().__init__(
            _make_router(service), host, port, name="repro-serve-http",
            requests_total=service.registry.counter(
                "repro_serve_http_requests_total",
                "HTTP requests by method/code"))
