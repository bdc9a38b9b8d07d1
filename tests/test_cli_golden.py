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
    "run": "aab8ba3925be4fe82fc632274fea32f6589fb4f4ef35492091477aff35ba5a41",
    "compare": "e2d7a5065c23424bb7d1f5c42200451f50da88b3dd30f13332d0a2e60e3a10af",
    "sweep": "58da714e1f6ea0ef2f6577c99f86e9eb7210c1569104b908cee709b4d7c9bbfb",
    "profile": "907199c912aaa5d8f5861d9fee240a5f902860f2f33031ec41958177f18b6de5",
    "profile_sizes": "8647474f6b3625055a2799f79ad884e0f8bba06c594c276f76af47b128caaa18",
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
