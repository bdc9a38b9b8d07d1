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
        return {
            "schema": self.schema,
            "workload": self.workload,
            "mmu": self.mmu,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "accesses": self.accesses,
            "warmup": self.warmup,
            "package_version": self.package_version,
        }

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so newer
        documents still load (forward compatibility for cached results)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in doc.items()
                      if key in names})
