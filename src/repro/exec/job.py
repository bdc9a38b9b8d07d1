"""Frozen job descriptions: one simulation point each.

A :class:`Job` captures everything that determines a
:class:`~repro.sim.results.SimulationResult` — workload, MMU
configuration name, hardware config, access/warmup counts, seed,
interval — as a frozen, picklable value object.  :meth:`Job.fingerprint`
extends the :meth:`~repro.obs.manifest.RunManifest.identity` machinery:
two jobs with equal fingerprints must produce identical results, which
is what makes plan-level deduplication and the on-disk
:class:`~repro.exec.cache.ResultCache` sound.

A job runs on the runner's ``build_mmu``/``lay_out`` primitives; the
runner's one-call helpers import the engine only when they are called,
so the two never form an import cycle.
"""

from __future__ import annotations

import functools
import time
import traceback as tb
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro import __version__
from repro.common.params import SystemConfig, config_from_dict, digest
from repro.obs.manifest import (MANIFEST_SCHEMA, config_fingerprint,
                                run_identity)
from repro.osmodel.kernel import Kernel
from repro.sim.runner import build_mmu, lay_out
from repro.sim.simulator import Simulator

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer
    from repro.sim.results import SimulationResult
    from repro.workloads.spec import WorkloadSpec

#: Version tag of the :meth:`Job.to_json_dict` wire format — what the
#: simulation service accepts over HTTP (``POST /jobs``).
JOB_SCHEMA = "repro.job/v1"

#: The config of every job that names none.  One shared (frozen) object,
#: so ``config_fingerprint`` serializes and hashes it once per process,
#: for job identities and result manifests alike.
DEFAULT_CONFIG = SystemConfig()


def _integer(key: str, value: Any, minimum: Optional[int] = None) -> int:
    """One integer field of a job document, checked, never coerced: a
    bool, float or string is a ``ValueError``, as is a value below
    ``minimum``."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class Job:
    """One (workload, MMU, config) simulation point, ready to execute."""

    workload: "Union[str, WorkloadSpec]"
    mmu: str
    config: Optional[SystemConfig] = None
    accesses: int = 100_000
    warmup: int = 20_000
    seed: int = 42
    interval: Optional[int] = None
    reset_stats_after_warmup: bool = False
    #: Extra key/value pairs attached to the tracer's ``run_start`` mark
    #: (e.g. the swept parameter values).  Purely descriptive — tags do
    #: not influence the fingerprint.
    tags: Tuple[Tuple[str, Any], ...] = ()

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    def identity(self) -> Dict[str, Any]:
        """Every deterministic input, in ``RunManifest.identity`` layout.

        Equal identities ⇒ equal results.  The manifest's environment
        fields (host, wall-clock, Python version) are exactly what this
        omits; the engine adds the fields the manifest predates —
        ``interval``, ``reset_stats_after_warmup``, and a hash of ad-hoc
        workload specs not named in the catalog.  Built once per job;
        each call returns a fresh copy the caller may mutate.
        """
        return dict(self._identity)

    def fingerprint(self) -> str:
        """Stable short hash of :meth:`identity` — the dedup/cache key."""
        return self._fingerprint

    # A frozen job never changes, so both are computed on first use and
    # kept on the instance (``cached_property`` writes the instance dict
    # directly; fields, equality and hashing never see them).

    @functools.cached_property
    def _identity(self) -> Dict[str, Any]:
        identity = run_identity(
            MANIFEST_SCHEMA, self.workload_name, self.mmu,
            config_fingerprint(self.config or DEFAULT_CONFIG), self.seed,
            self.accesses, self.warmup, __version__)
        identity["interval"] = self.interval
        identity["reset_stats_after_warmup"] = self.reset_stats_after_warmup
        if not isinstance(self.workload, str):
            identity["workload_spec_hash"] = config_fingerprint(self.workload)
        return identity

    @functools.cached_property
    def _fingerprint(self) -> str:
        return digest(self._identity)

    def to_json_dict(self) -> Dict[str, Any]:
        """This job as a ``repro.job/v1`` document (the service wire
        format).

        Only catalog-named workloads serialize — an ad-hoc
        :class:`~repro.workloads.spec.WorkloadSpec` has no stable wire
        form, so it raises rather than fingerprint-drifting silently.
        ``config`` is the nested plain-dict view (``None`` means the
        default :class:`SystemConfig`); ``tags`` must be
        JSON-representable pairs.
        """
        if not isinstance(self.workload, str):
            raise ValueError(
                "ad-hoc WorkloadSpec jobs have no repro.job/v1 form; "
                "submit a catalog workload name instead")
        return {
            "schema": JOB_SCHEMA,
            "workload": self.workload,
            "mmu": self.mmu,
            "config": self.config.to_dict() if self.config else None,
            "accesses": self.accesses,
            "warmup": self.warmup,
            "seed": self.seed,
            "interval": self.interval,
            "reset_stats_after_warmup": self.reset_stats_after_warmup,
            "tags": [[key, value] for key, value in self.tags],
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, Any]) -> "Job":
        """Inverse of :meth:`to_json_dict`.

        Round-trip invariant (pinned by the property suite):
        ``Job.from_json_dict(job.to_json_dict()) == job``, hence equal
        fingerprints.  Dict key order never matters — identity is built
        field by field and hashed over sorted keys.  Unknown keys are
        ignored for forward compatibility; missing required keys raise
        ``KeyError``, wrong shapes raise ``TypeError``/``ValueError``.
        ``accesses``, ``warmup`` and ``seed`` must be integers (not bools
        or floats), the first two non-negative, and ``interval`` is null
        or a positive integer.
        """
        schema = doc.get("schema")
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"expected a {JOB_SCHEMA} document, got {schema!r}")
        workload = doc["workload"]
        if not isinstance(workload, str):
            raise TypeError("workload must be a catalog name string")
        config_doc = doc.get("config")
        return cls(
            workload=workload,
            mmu=doc["mmu"],
            config=(config_from_dict(config_doc)
                    if config_doc is not None else None),
            accesses=_integer("accesses", doc.get("accesses", 100_000),
                              minimum=0),
            warmup=_integer("warmup", doc.get("warmup", 20_000), minimum=0),
            seed=_integer("seed", doc.get("seed", 42)),
            interval=(_integer("interval", doc["interval"], minimum=1)
                      if doc.get("interval") is not None else None),
            reset_stats_after_warmup=bool(
                doc.get("reset_stats_after_warmup", False)),
            tags=tuple((str(key), value)
                       for key, value in doc.get("tags", ())),
        )

    def mark_detail(self) -> Dict[str, Any]:
        """Fields for the ``run_start`` tracer mark bracketing this job."""
        detail: Dict[str, Any] = {"workload": self.workload_name,
                                  "mmu": self.mmu}
        detail.update(dict(self.tags))
        return detail

    def run(self, tracer: "Optional[Tracer]" = None,
            pulse=None) -> "SimulationResult":
        """Execute this job on a fresh kernel (one independent system).

        ``baseline_thp`` runs on a transparent-huge-page kernel (2 MB-
        aligned eager allocations); every other configuration uses the
        standard one.  ``pulse`` is the simulator's periodic-progress
        hook (see :class:`~repro.obs.heartbeat.HeartbeatPulse`); it
        reports, never influences, the simulated outcome.
        """
        config = self.config or DEFAULT_CONFIG
        kernel = Kernel(config,
                        transparent_huge_pages=self.mmu == "baseline_thp")
        laid_out = lay_out(self.workload, kernel, seed=self.seed)
        mmu = build_mmu(self.mmu, kernel, config)
        return Simulator(mmu).run(
            laid_out, self.accesses, warmup=self.warmup, seed=self.seed,
            reset_stats_after_warmup=self.reset_stats_after_warmup,
            interval=self.interval, tracer=tracer, pulse=pulse)


@dataclass(frozen=True)
class JobError:
    """Structured capture of one failed job — the rest of the sweep
    completes and the failure stays inspectable."""

    fingerprint: str
    workload: str
    mmu: str
    error_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, job: Job, exc: BaseException) -> "JobError":
        return cls(
            fingerprint=job.fingerprint(),
            workload=job.workload_name,
            mmu=job.mmu,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(tb.format_exception(type(exc), exc,
                                                  exc.__traceback__)),
        )


class JobFailedError(RuntimeError):
    """Raised when a plan consumer demands the result of a failed job."""

    def __init__(self, error: JobError) -> None:
        super().__init__(f"job {error.workload}/{error.mmu} failed: "
                         f"{error.error_type}: {error.message}")
        self.error = error


class JobCancelled(RuntimeError):
    """A running job was aborted mid-simulation because its timeout
    passed.  Captured like any failure — the outcome is a
    :class:`JobError` with ``error_type == "JobCancelled"`` — so one
    cancelled point never kills a batch."""


class CancelPulse:
    """The engine's timeout hook, riding the simulator's pulse.

    The simulator already supports one periodic callback (the heartbeat
    protocol: an ``every`` attribute plus ``__call__(done, total,
    instructions, cycles)``), so a timeout costs nothing new on the hot
    path: this wraps an optional inner pulse, checks a wall-clock
    ``deadline`` (``time.time()``, picklable — it crosses into pool
    workers) at the inner pulse's cadence, raises :class:`JobCancelled`
    once it has passed, and otherwise delegates.  A simulation is
    abandoned within ``every`` accesses of its deadline, not at the end
    of the run.
    """

    #: Check cadence when no inner pulse dictates one.
    DEFAULT_EVERY = 1024

    def __init__(self, inner: Optional[Any], deadline: float) -> None:
        self.every = getattr(inner, "every", 0) or self.DEFAULT_EVERY
        self._inner = inner
        self._deadline = deadline

    def __call__(self, done: int, total: int, instructions: int,
                 cycles: float) -> None:
        if time.time() >= self._deadline:
            raise JobCancelled(
                f"deadline exceeded after {done} timed accesses")
        if self._inner is not None:
            self._inner(done, total, instructions, cycles)

    def finish(self, accesses: int, instructions: int, cycles: float,
               ok: bool = True) -> None:
        """Delegate the terminal beat (no-op without an inner pulse)."""
        if self._inner is not None:
            self._inner.finish(accesses, instructions, cycles, ok=ok)
