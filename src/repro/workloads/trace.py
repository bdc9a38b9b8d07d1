"""Trace records.

A trace is a generator of :class:`TraceRecord` — one memory reference plus
the count of non-memory instructions preceding it (derived from the
workload's memory-op ratio).  Generators are lazy so multi-million-access
experiments never materialize a trace in memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class TraceRecord:
    """One memory reference in a trace."""

    asid: int
    core: int
    va: int
    is_write: bool
    gap: int  # non-memory instructions since the previous reference

