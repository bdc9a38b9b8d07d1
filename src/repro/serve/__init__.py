"""Simulation-as-a-service: the long-lived, multi-client layer.

``repro serve`` turns the job engine into an HTTP service: clients
POST ``repro.job/v1`` documents, duplicate in-flight submissions
coalesce onto one execution by :meth:`~repro.exec.job.Job.fingerprint`,
cache hits answer straight from the on-disk
:class:`~repro.exec.cache.ResultCache`, and misses run in batches on
the configured executor behind a bounded queue with admission control
(429 + ``Retry-After``).  SIGTERM drains in-flight work before exit.

* :class:`JobService` — the core (coalescing, batching, drain);
* :class:`ServeServer` — the HTTP front end (``/jobs``, ``/healthz``,
  ``/metrics``), one ``selectors`` loop thread with its own HTTP/1.1
  parser (:class:`~repro.common.httpd.HttpListener`).

See ``docs/serving.md``.
"""

from repro.common.httpd import MAX_BODY_BYTES
from repro.serve.http import ServeServer
from repro.serve.service import (DISPOSITIONS, ERROR_SCHEMA, HEALTH_SCHEMA,
                                 JOBS_SCHEMA, STATUS_SCHEMA, JobRecord,
                                 JobService, QueueFullError,
                                 ServiceDrainingError)

__all__ = [
    "JobService",
    "JobRecord",
    "ServeServer",
    "QueueFullError",
    "ServiceDrainingError",
    "STATUS_SCHEMA",
    "ERROR_SCHEMA",
    "HEALTH_SCHEMA",
    "JOBS_SCHEMA",
    "DISPOSITIONS",
    "MAX_BODY_BYTES",
]
