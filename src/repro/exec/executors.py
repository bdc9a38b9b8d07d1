"""Pluggable executors: serial (default) and process-pool parallel.

Executors never raise for a failing job: each outcome is either a
``SimulationResult`` or a structured :class:`JobError`, so one
diverging point cannot kill an N-point sweep.

:class:`ParallelExecutor` fans jobs over a ``ProcessPoolExecutor`` that
it keeps across :meth:`~ParallelExecutor.run` calls until
:meth:`~ParallelExecutor.close`, so a long-lived caller such as
``repro serve`` starts its workers once rather than per batch.
Outcomes are returned in submission order and every job seeds its own
fresh kernel, so parallel output is bit-identical to serial output
(pinned by the determinism test in ``tests/test_exec.py``).

Per-access tracing crosses the process boundary via *sharded sinks*: a
live ``Tracer`` holds an open file handle, so only in-process (serial)
execution takes one — :class:`SerialExecutor` brackets each job in it
with a ``run_start`` mark, and :class:`ParallelExecutor` rejects it.  A
picklable :class:`~repro.obs.tracer.TraceSpec` describes a family of
per-job shards instead — each worker opens ``<base>.<fingerprint>.jsonl``
itself, writes a ``run_start`` mark, records its own job, and closes.
The shard set of a parallel run is identical to that of a serial run of
the same plan.

Live progress crosses the same boundary via a
:class:`~repro.obs.heartbeat.BeatSpec`: the worker builds a per-job
:class:`~repro.obs.heartbeat.HeartbeatPulse` from it, the simulator
fires the pulse every N timed accesses, and a terminal beat is emitted
when the job returns — whether it succeeded or not, so the parent's
monitor always sees closure.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Union

from repro.exec.job import CancelPulse, Job, JobError

if TYPE_CHECKING:
    from repro.obs.heartbeat import BeatSpec
    from repro.obs.tracer import Tracer, TraceSpec
    from repro.sim.results import SimulationResult

#: What one job yields: a result, or its captured failure.
Outcome = Union["SimulationResult", JobError]

#: Per-completion callback: ``on_done(job, outcome)``.  Serial executors
#: call it in submission order; parallel ones in completion order.
JobCallback = Callable[[Job, Outcome], None]


def run_job(job: Job, tracer: "Optional[Tracer]" = None,
            trace_spec: "Optional[TraceSpec]" = None,
            beat: "Optional[BeatSpec]" = None,
            timeout: Optional[float] = None) -> Outcome:
    """Run one job, capturing any failure as a :class:`JobError`.

    Module-level so :class:`ParallelExecutor` can pickle it into worker
    processes.  With a ``trace_spec``, the job records into its own
    shard — opened here, inside whichever process runs the job, and
    closed before the outcome is returned — bracketed by a ``run_start``
    mark so every shard is a self-describing single-run trace.  With a
    ``beat``, the job pushes periodic heartbeats plus one terminal beat
    (success or failure) over the spec's queue.

    ``timeout`` (seconds, measured from when this job *starts*
    executing, not from submission) aborts the simulation mid-run
    through a :class:`CancelPulse`; the outcome is a :class:`JobError`
    with ``error_type == "JobCancelled"``.
    """
    pulse = beat.pulse_for(job) if beat is not None else None
    if timeout is not None:
        pulse = CancelPulse(pulse, deadline=time.time() + timeout)
    if trace_spec is not None:
        tracer = trace_spec.open(job.fingerprint())
        tracer.mark("run_start", **job.mark_detail())
    try:
        result = job.run(tracer=tracer, pulse=pulse)
    except Exception as exc:
        if pulse is not None:
            pulse.finish(0, 0, 0.0, ok=False)
        return JobError.from_exception(job, exc)
    else:
        if pulse is not None:
            pulse.finish(result.accesses, result.instructions,
                         result.cycles, ok=True)
        return result
    finally:
        if trace_spec is not None and tracer is not None:
            tracer.close()


class SerialExecutor:
    """In-process, one-job-at-a-time execution.

    Behavior-identical to the historical hand-rolled loops (same order,
    same tracer stream, same results); the default everywhere.
    """

    def __init__(self) -> None:
        #: Jobs actually handed to :func:`run_job` — cache hits never
        #: reach an executor, which is what the cache tests count.
        self.submitted = 0

    def run(self, jobs: Sequence[Job], tracer: "Optional[Tracer]" = None,
            on_done: Optional[JobCallback] = None,
            trace_spec: "Optional[TraceSpec]" = None,
            beat: "Optional[BeatSpec]" = None,
            timeout: Optional[float] = None) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for job in jobs:
            if tracer is not None and trace_spec is None:
                tracer.mark("run_start", **job.mark_detail())
            self.submitted += 1
            outcome = run_job(job, tracer=None if trace_spec else tracer,
                              trace_spec=trace_spec, beat=beat,
                              timeout=timeout)
            outcomes.append(outcome)
            if on_done is not None:
                on_done(job, outcome)
        return outcomes

    def close(self) -> None:
        """Nothing to release: jobs run in this process."""


class ParallelExecutor:
    """Process-pool execution of independent jobs.

    ``workers`` caps the pool size (``None`` → ``os.cpu_count()``).
    Jobs are pickled to worker processes; outcomes come back in
    submission order regardless of completion order.  A live ``Tracer``
    cannot follow them there, so :meth:`run` rejects one: trace a
    parallel run through a ``TraceSpec``.

    The pool starts on the first :meth:`run`, with the platform's
    default start method, and is kept for later calls until
    :meth:`close` shuts it down and joins its workers.  A worker that
    dies mid-job breaks the pool: every job of that batch still
    unfinished yields a :class:`JobError` rather than an exception.  A
    broken pool (including one whose worker died while idle) is
    replaced on the next submission.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.submitted = 0
        self._pool: "Optional[concurrent.futures.ProcessPoolExecutor]" = None

    def run(self, jobs: Sequence[Job], tracer: "Optional[Tracer]" = None,
            on_done: Optional[JobCallback] = None,
            trace_spec: "Optional[TraceSpec]" = None,
            beat: "Optional[BeatSpec]" = None,
            timeout: Optional[float] = None) -> List[Outcome]:
        if tracer is not None and tracer.active:
            raise ValueError("a live Tracer cannot reach pool workers; "
                             "pass a TraceSpec to record per-job shards")
        jobs = list(jobs)
        if not jobs:
            return []
        outcomes: List[Optional[Outcome]] = [None] * len(jobs)
        futures = {}
        for index, job in enumerate(jobs):
            self.submitted += 1
            futures[self._submit(job, trace_spec=trace_spec, beat=beat,
                                 timeout=timeout)] = index
        for future in concurrent.futures.as_completed(futures):
            index = futures[future]
            job = jobs[index]
            try:
                outcome = future.result()
            except Exception as exc:
                outcome = JobError.from_exception(job, exc)
            outcomes[index] = outcome
            if on_done is not None:
                on_done(job, outcome)
        return list(outcomes)  # fully populated: every future completed

    def _submit(self, job: Job, **kwargs: Any) -> "concurrent.futures.Future":
        """Hand one job to the kept pool, starting it on first use.  A
        pool found broken (a worker died since it last ran a job) is
        shut down and the job goes to a fresh one."""
        if self._pool is not None:
            try:
                return self._pool.submit(run_job, job, **kwargs)
            except concurrent.futures.BrokenExecutor:
                self.close()
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers)
        return self._pool.submit(run_job, job, **kwargs)

    def close(self) -> None:
        """Shut the pool down and join its workers (idempotent).  A later
        :meth:`run` starts a new pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
