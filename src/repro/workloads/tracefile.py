"""Trace persistence: save and load reference streams.

The paper drives its synonym-filter study from Pin traces of real
binaries; this module is the interchange point for doing the same with
this simulator — record a generated trace once and replay it across
configurations, or import an externally captured trace.

One format (``.trc`` by convention): an 8-byte magic/version header, then
fixed 16-byte records (``<HBBIQ``: asid, core, flags, gap, va).  A record
holds an asid below 2^16, a core below 2^8, a gap below 2^32 and a va
below 2^64, none negative; a save that meets any other record raises and
leaves no file behind.  The loader streams (constant memory) and checks
the header and record integrity, so a truncated or foreign file fails
loudly instead of yielding garbage addresses.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.workloads.trace import TraceRecord

MAGIC = b"RPTRC\x01\x00\x00"
_RECORD = struct.Struct("<HBBIQ")  # asid, core, flags, gap, va
_FLAG_WRITE = 0x1
#: The largest value each field of a record holds.
_FIELD_LIMITS = (("asid", 0xFFFF), ("core", 0xFF), ("va", (1 << 64) - 1),
                 ("gap", (1 << 32) - 1))
_TMP_COUNTER = itertools.count()

PathLike = Union[str, Path]


class TraceFormatError(Exception):
    """The file is not a valid trace in the expected format."""


def _range_error(record: TraceRecord) -> Optional[str]:
    """Why ``record`` does not fit the format, or None if it does."""
    for field, limit in _FIELD_LIMITS:
        value = getattr(record, field)
        if not 0 <= value <= limit:
            return f"{field} {value} outside [0, {limit:#x}]"
    return None


def save(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace file; returns records written.

    The records go to a temp file that replaces ``path`` only once all of
    them are written, so a record the format cannot hold raises
    :class:`TraceFormatError` and leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
    count = 0
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            buffer = io.BytesIO()
            for record in trace:
                flags = _FLAG_WRITE if record.is_write else 0
                try:
                    packed = _RECORD.pack(record.asid, record.core, flags,
                                          record.gap, record.va)
                except struct.error as exc:
                    raise TraceFormatError(
                        f"{path}: record {count}: "
                        f"{_range_error(record) or exc}") from exc
                buffer.write(packed)
                count += 1
                if buffer.tell() >= 1 << 20:
                    handle.write(buffer.getvalue())
                    buffer = io.BytesIO()
            handle.write(buffer.getvalue())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)   # never leave temp litter behind
        raise
    return count


def load(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a trace file."""
    with open(path, "rb") as handle:
        header = handle.read(len(MAGIC))
        if header != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {header!r}")
        while True:
            chunk = handle.read(_RECORD.size)
            if not chunk:
                return
            if len(chunk) != _RECORD.size:
                raise TraceFormatError(f"{path}: truncated record")
            asid, core, flags, gap, va = _RECORD.unpack(chunk)
            yield TraceRecord(asid=asid, core=core, va=va,
                              is_write=bool(flags & _FLAG_WRITE), gap=gap)
