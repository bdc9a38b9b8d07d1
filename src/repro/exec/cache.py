"""Fingerprint-keyed on-disk result cache.

Each entry is one ``repro.result/v1`` JSON document stored at
``<root>/<fingerprint>.json``, with the job's identity embedded so a
human can tell what produced it.  Loads verify the schema and require
the recorded fingerprint to be the job's own; anything missing,
corrupt, or mismatched is a miss (a bare ``repro run --json`` document
carries no fingerprint, so it never loads as some job's result).  A
broken cache entry can cost a re-simulation, never a wrong result.
Stores are atomic (temp file + rename) with per-writer temp names —
pid, thread id and a monotonic counter — so concurrent
processes, concurrent threads (two service workers racing on the same
fingerprint) and interrupted runs cannot leave half-written or
interleaved entries behind.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.exec.job import Job

if TYPE_CHECKING:
    from repro.sim.results import SimulationResult

#: Distinguishes same-process writers racing on one fingerprint.
_TMP_COUNTER = itertools.count()


def result_document(job: Job, result: "SimulationResult") -> Dict[str, Any]:
    """The ``repro.result/v1`` document a cache entry holds.

    The result's own JSON plus the additive provenance keys —
    ``fingerprint`` and the job ``identity`` (the schema keeps its
    version; see ``results.py``).  The simulation service serves this
    exact layout, so a body answered from a fresh run and one answered
    from a later cache hit are byte-identical.
    """
    doc = result.to_json_dict()
    doc["fingerprint"] = job.fingerprint()
    doc["identity"] = job.identity()
    return doc


def encode_document(doc: Dict[str, Any]) -> str:
    """Canonical on-disk/on-wire encoding of one result document."""
    return json.dumps(doc, indent=2) + "\n"


class ResultCache:
    """Opt-in persistent store of simulation results, keyed by
    :meth:`Job.fingerprint` (``--cache-dir`` on the CLI)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path(self, job: Job) -> Path:
        return self.root / f"{job.fingerprint()}.json"

    def load(self, job: Job) -> "Optional[SimulationResult]":
        """The cached result for ``job``, or ``None`` on any miss."""
        from repro.sim.results import RESULT_SCHEMA, SimulationResult

        try:
            doc = json.loads(self.path(job).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA
                or doc.get("fingerprint") != job.fingerprint()):
            self.misses += 1
            return None
        try:
            result = SimulationResult.from_json_dict(doc)
        except (TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, job: Job, result: "SimulationResult") -> str:
        """Persist one result atomically; returns the entry's text, which
        is exactly what :func:`encode_document` makes of the job's
        :func:`result_document` (the service serves it as the body).

        The temp name carries pid + thread id + a counter: two writers
        racing on the same fingerprint each write their own temp file
        and the last ``os.replace`` wins whole — a reader can never see
        a truncated or interleaved entry.  (Equal fingerprints mean
        equal results, so *which* writer wins is immaterial.)
        """
        text = encode_document(result_document(job, result))
        path = self.path(job)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_COUNTER)}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)   # never leave temp litter behind
            raise
        self.stores += 1
        return text

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
