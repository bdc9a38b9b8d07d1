"""Hardware segment table (Section IV-C, Figures 5–6).

A hardware structure mirrors the system-wide in-memory segment table.  The
paper sizes the HW table equal to the in-memory table (2048 entries) "to
simplify implementation"; here both hold
``config.segments.segment_table_entries``.  So misses occur only for
*cold* segment-IDs: the first touch of a segment raises an OS interrupt
that fills the entry, and subsequent touches always hit.  Access latency
is 7 cycles (CACTI, low standby power configuration).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.common.params import SegmentTranslationConfig
from repro.common.stats import StatGroup
from repro.osmodel.segments import OsSegmentTable, Segment


class HwSegmentTable:
    """HW mirror of the OS segment table, filled on cold misses."""

    #: Cycles charged for the OS interrupt that fills a cold entry.
    FILL_INTERRUPT_CYCLES = 500

    def __init__(self, os_table: OsSegmentTable,
                 config: SegmentTranslationConfig | None = None) -> None:
        self.config = config or SegmentTranslationConfig()
        self.os_table = os_table
        self.stats = StatGroup("hw_segment_table")
        self._counts = self.stats.counts
        self._loaded: Set[int] = set()

    @property
    def latency(self) -> int:
        return self.config.segment_table_latency

    def read(self, seg_id: int) -> tuple[Optional[Segment], int]:
        """Index the HW table by segment-ID.

        Returns ``(segment, cycles)``.  A cold miss charges the OS fill
        interrupt on top of the table access; a stale ID (segment removed
        by the OS) returns ``None`` so the caller can re-walk.
        """
        counts = self._counts
        counts["reads"] += 1
        cycles = self.latency
        try:
            segment = self.os_table.get(seg_id)
        except KeyError:
            counts["stale_ids"] += 1
            return None, cycles
        if seg_id not in self._loaded:
            entries = self.config.segment_table_entries
            if len(self._loaded) >= entries:
                raise MemoryError("HW segment table exceeded its capacity; "
                                  f"the OS table must stay within {entries} "
                                  "entries")
            self._loaded.add(seg_id)
            cycles += self.FILL_INTERRUPT_CYCLES
            counts["cold_fills"] += 1
        return segment, cycles

    def flush(self) -> None:
        self._loaded.clear()
