"""Trace persistence: save and load reference streams.

The paper drives its synonym-filter study from Pin traces of real
binaries; this module is the interchange point for doing the same with
this simulator — record a generated trace once and replay it across
configurations, or import an externally captured trace.

Two formats:

* **binary** (``.trc``) — fixed 16-byte records
  (``<HBBIQ``: asid, core, flags, gap, va), with an 8-byte magic/version
  header.  Compact and fast; the default.
* **text** (``.csv``) — ``asid,core,va_hex,w|r,gap`` lines with a header
  comment; greppable and diffable.

Both loaders are streaming (constant memory) and validate headers and
record integrity, so a truncated or foreign file fails loudly instead of
yielding garbage addresses.  Both formats hold only what the binary record
can: an asid below 2^16, a core below 2^8, a gap below 2^32 and a va below
2^64, none negative.  A binary save that meets any other record raises and
leaves no file behind.
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
#: The largest value each field of a binary record holds.
_FIELD_LIMITS = (("asid", 0xFFFF), ("core", 0xFF), ("va", (1 << 64) - 1),
                 ("gap", (1 << 32) - 1))
_TMP_COUNTER = itertools.count()

PathLike = Union[str, Path]


class TraceFormatError(Exception):
    """The file is not a valid trace in the expected format."""


def _range_error(record: TraceRecord) -> Optional[str]:
    """Why ``record`` does not fit the binary format, or None if it does."""
    for field, limit in _FIELD_LIMITS:
        value = getattr(record, field)
        if not 0 <= value <= limit:
            return f"{field} {value} outside [0, {limit:#x}]"
    return None


# ---------------------------------------------------------------------- #
# Binary format
# ---------------------------------------------------------------------- #

def save_binary(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace to the binary format; returns records written.

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


def load_binary(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a binary trace file."""
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


# ---------------------------------------------------------------------- #
# Text format
# ---------------------------------------------------------------------- #

def save_text(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace as ``asid,core,va_hex,w|r,gap`` lines."""
    count = 0
    with open(path, "w") as handle:
        handle.write("# repro trace v1: asid,core,va,rw,gap\n")
        for record in trace:
            rw = "w" if record.is_write else "r"
            handle.write(f"{record.asid},{record.core},"
                         f"{record.va:#x},{rw},{record.gap}\n")
            count += 1
    return count


def load_text(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a text trace file."""
    with open(path) as handle:
        first = handle.readline()
        if not first.startswith("# repro trace v1"):
            raise TraceFormatError(f"{path}: missing text-trace header")
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5 or parts[3] not in ("r", "w"):
                raise TraceFormatError(
                    f"{path}:{line_number}: malformed record {line!r}")
            try:
                record = TraceRecord(asid=int(parts[0]), core=int(parts[1]),
                                     va=int(parts[2], 16),
                                     is_write=parts[3] == "w",
                                     gap=int(parts[4]))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{line_number}: {exc}") from exc
            problem = _range_error(record)
            if problem is not None:
                raise TraceFormatError(f"{path}:{line_number}: {problem}")
            yield record


# ---------------------------------------------------------------------- #
# Format dispatch
# ---------------------------------------------------------------------- #

def save(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Save, picking the format from the extension (.trc binary, else text)."""
    if str(path).endswith(".trc"):
        return save_binary(path, trace)
    return save_text(path, trace)


def load(path: PathLike) -> Iterator[TraceRecord]:
    """Load, sniffing the format from the file's first bytes."""
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return load_binary(path)
    return load_text(path)
