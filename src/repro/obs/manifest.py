"""Run manifests: reproducible provenance for every simulation result.

A manifest answers "what exactly produced this number?": the workload,
MMU configuration name, a stable fingerprint of every hardware parameter,
the trace seed, access/warmup counts, the package version, and the
runtime environment (host, Python, wall-clock).  :meth:`RunManifest.
identity` strips the environment fields, leaving only what determines
the simulated outcome — two runs with equal identities must produce
identical results.
"""

from __future__ import annotations

import dataclasses
import platform
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import __version__
from repro.common.params import config_fingerprint

MANIFEST_SCHEMA = "repro.manifest/v1"


def run_identity(schema: str, workload: str, mmu: str, config_hash: str,
                 seed: Optional[int], accesses: int, warmup: int,
                 package_version: str) -> Dict[str, Any]:
    """The eight fields that decide a run's outcome, in the layout
    :meth:`RunManifest.identity`, a job's identity and the metrics
    store's run keys share."""
    return {
        "schema": schema,
        "workload": workload,
        "mmu": mmu,
        "config_hash": config_hash,
        "seed": seed,
        "accesses": accesses,
        "warmup": warmup,
        "package_version": package_version,
    }


@dataclass
class RunManifest:
    """Provenance record attached to one :class:`SimulationResult`."""

    workload: str
    mmu: str
    config_hash: str
    seed: Optional[int]
    accesses: int
    warmup: int
    package_version: str
    python_version: str
    host: str
    started_at: str          # ISO-8601 wall-clock
    duration_s: float
    schema: str = MANIFEST_SCHEMA

    @classmethod
    def collect(cls, workload: str, mmu: str, config: Any,
                seed: Optional[int], accesses: int, warmup: int,
                started_at: str, duration_s: float) -> "RunManifest":
        return cls(
            workload=workload,
            mmu=mmu,
            config_hash=config_fingerprint(config),
            seed=seed,
            accesses=accesses,
            warmup=warmup,
            package_version=__version__,
            python_version=platform.python_version(),
            host=platform.node(),
            started_at=started_at,
            duration_s=duration_s,
        )

    def identity(self) -> Dict[str, Any]:
        """The deterministic subset: equal identities ⇒ equal results."""
        return run_identity(self.schema, self.workload, self.mmu,
                            self.config_hash, self.seed, self.accesses,
                            self.warmup, self.package_version)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so newer
        documents still load (forward compatibility for cached results),
        and a missing field without a default raises ``ValueError``
        naming it."""
        fields = dataclasses.fields(cls)
        missing = [f.name for f in fields if f.name not in doc
                   and f.default is dataclasses.MISSING]
        if missing:
            raise ValueError(f"manifest has no {', '.join(missing)}")
        names = {f.name for f in fields}
        return cls(**{key: value for key, value in doc.items()
                      if key in names})
