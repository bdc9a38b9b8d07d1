"""Job-based experiment execution engine.

Every data point the repo produces — ``run_workload``, the
``compare_configs``/``sweep_grid`` helpers, the CLI subcommands, and the
``benchmarks/`` figure/table modules — is one frozen :class:`Job`.
Builders collect jobs into an :class:`ExperimentPlan` (which dedupes
identical fingerprints), and :meth:`ExperimentPlan.run` hands the unique
jobs to a pluggable executor.  ``run`` is the one home of the run
options — executor, result cache, tracer or trace spec, progress,
metrics and heartbeats; the one-call helpers run serially, uncached and
untraced.  The executors:

* :class:`SerialExecutor`  — in-process, one at a time; bit-identical
  to the historical hand-rolled loops (the default);
* :class:`ParallelExecutor` — fans independent jobs across a process
  pool (``--workers N`` on the CLI) that it keeps across runs until
  ``close()``, returning outcomes in submission order so results stay
  deterministic.

A failing job never kills a sweep: executors capture the exception as a
structured :class:`JobError` and the other points complete.  An opt-in
:class:`ResultCache` (``--cache-dir``) persists ``repro.result/v1``
documents keyed by job fingerprint, so re-running a sweep only
simulates the points whose inputs changed.

See ``docs/execution.md`` for the full model.
"""

from repro.exec.cache import ResultCache, encode_document, result_document
from repro.exec.executors import ParallelExecutor, SerialExecutor, run_job
from repro.exec.job import Job, JobError, JobFailedError
from repro.exec.plan import ExperimentPlan

__all__ = [
    "Job",
    "JobError",
    "JobFailedError",
    "ExperimentPlan",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultCache",
    "result_document",
    "encode_document",
    "run_job",
]
