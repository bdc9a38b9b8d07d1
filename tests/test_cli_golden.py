"""Golden CLI documents: what the simulation commands print with ``--json``.

``repro run``, ``compare``, ``sweep``, ``profile`` and ``profile
--sizes`` each run at a small size, serially and on a two-process pool.
The SHA-256 of the printed document is pinned after the manifest fields
that describe the host and the clock are stripped, so a change to the
jobs a command builds (their config, interval or order) or to how it
assembles its document fails here.  A serial and a parallel run must
print the same document, so both check against one digest.

Print the current digests with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import main
from tests.test_golden import VOLATILE_MANIFEST_FIELDS

FLAGS = ["--json", "--accesses", "600", "--warmup", "200"]

COMMANDS = {
    "run": ["run", "gups", "hybrid_segments"],
    "compare": ["compare", "stream", "--configs", "baseline,hybrid_tlb"],
    "sweep": ["sweep", "stream", "--sizes", "512,1024"],
    "profile": ["profile", "stream", "hybrid_tlb"],
    "profile_sizes": ["profile", "stream", "hybrid_tlb",
                      "--sizes", "512,1024"],
}

GOLDEN = {
    "run": "1a261aa1182b7eff8a18d514847e037093233a84136e29475f8f40f055c45820",
    "compare": "82f53d6d7cdad7dd44ab0b73898dae1da64f3d669b12c70f6d22473f46bfff5b",
    "sweep": "1f71798a5d1d79823da9c7d7af9d5d3719a00f2896bc6d7d9c8467a086984172",
    "profile": "481aea5fe946b6b09c073c779503fa5526d996824d42413a2ca7144347a5e6d2",
    "profile_sizes": "ef884961d57dd2c22b4b82399baa5ca06155ce985773d54a4775c31061b7881d",
}


def _strip(value, key=None):
    """``value`` without the volatile fields of any manifest in it."""
    if isinstance(value, dict):
        return {k: _strip(v, k) for k, v in value.items()
                if not (key == "manifest" and k in VOLATILE_MANIFEST_FIELDS)}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def document_digest(command: str, workers: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(COMMANDS[command] + FLAGS
                    + ["--workers", str(workers)]) == 0
    doc = _strip(json.loads(out.getvalue()))
    text = json.dumps(doc, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_document_bytes_unchanged(command, workers):
    assert document_digest(command, workers) == GOLDEN[command]


if __name__ == "__main__":
    for name in COMMANDS:
        print(f'    "{name}": "{document_digest(name, 1)}",')
