"""Redundant Memory Mappings (RMM) baseline [Karakostas et al., ISCA'15].

RMM places a small *range TLB* of variable-length segments on the critical
core-to-L1 path, redundantly with conventional paging.  Because it sits
before the L1, its size is latency-bound: 32 fully associative entries
probed beside the L2 TLB, within its 7 cycles (the paper's Section IV-A.2
description).  When an access misses all 32 ranges, a range-table walk
refills the range TLB.

The paper's Table III reports *segment misses per kilo-instruction* for
this design on workloads whose live-segment count exceeds 32 — the
thrashing that motivates many-segment translation.  This module
reproduces that measurement.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.stats import StatGroup
from repro.osmodel.segments import OsSegmentTable, Segment


class RangeTlb:
    """Fully associative, LRU cache of ``(base, limit, offset)`` ranges."""

    #: Cycles for the range-table walk that services a miss (HW walker
    #: over an in-memory range table, per the RMM paper's design).
    WALK_CYCLES = 50

    def __init__(self, os_table: OsSegmentTable, entries: int = 32) -> None:
        self.os_table = os_table
        self.entries = entries
        self.stats = StatGroup("rmm_range_tlb")
        self._counts = self.stats.counts
        # seg_id -> Segment, insertion-ordered for LRU.
        self._ranges: Dict[int, Segment] = {}

    def lookup(self, asid: int, va: int) -> Tuple[int, int, bool]:
        """Translate through the range TLB, walking the range table on miss.

        Returns ``(pa, cycles, hit)``: 0 cycles on a hit and
        :attr:`WALK_CYCLES` after a range-table walk.  Raises
        :class:`~repro.osmodel.segments.SegmentFault` outside every range.
        """
        counts = self._counts
        counts["lookups"] += 1
        for seg_id, segment in self._ranges.items():
            if segment.asid == asid and segment.contains(va):
                del self._ranges[seg_id]
                self._ranges[seg_id] = segment
                counts["hits"] += 1
                return va + segment.offset, 0, True
        counts["misses"] += 1
        segment = self.os_table.find(asid, va)  # may raise SegmentFault
        self._fill(segment)
        return va + segment.offset, self.WALK_CYCLES, False

    def _fill(self, segment: Segment) -> None:
        if segment.seg_id in self._ranges:
            del self._ranges[segment.seg_id]
        elif len(self._ranges) >= self.entries:
            oldest = next(iter(self._ranges))
            del self._ranges[oldest]
            self._counts["evictions"] += 1
        self._ranges[segment.seg_id] = segment
        self._counts["fills"] += 1

    def miss_count(self) -> int:
        return self.stats["misses"]


class DirectSegment:
    """Single-segment baseline [Basu et al., ISCA'13].

    One ``(base, limit, offset)`` register set per process maps a single
    large contiguous region; anything outside falls back to conventional
    paging (signalled here by returning None so the caller can invoke its
    TLB path).
    """

    def __init__(self) -> None:
        self.stats = StatGroup("direct_segment")
        self._registers: Dict[int, Tuple[int, int, int]] = {}  # asid -> (base, limit, offset)

    def configure(self, asid: int, base: int, limit: int, offset: int) -> None:
        """Load the per-process segment registers (set up by the OS)."""
        if limit <= base:
            raise ValueError("segment limit must exceed base")
        self._registers[asid] = (base, limit, offset)

    def configure_from_segment(self, segment: Segment) -> None:
        """Load the registers from an OS segment record."""
        self.configure(segment.asid, segment.vbase, segment.vlimit,
                       segment.offset)

    def translate(self, asid: int, va: int) -> Optional[int]:
        """PA when inside the direct segment, else None (use paging)."""
        self.stats.add("lookups")
        registers = self._registers.get(asid)
        if registers is None:
            self.stats.add("fallbacks")
            return None
        base, limit, offset = registers
        if base <= va < limit:
            self.stats.add("hits")
            return va + offset
        self.stats.add("fallbacks")
        return None
