"""Segment cache (SC): a 128-entry, 2 MB-granularity translation cache.

The many-segment walk (index cache + segment table) costs ~20 cycles; the
SC short-circuits it for recently translated 2 MB regions (Section IV-C).
An entry maps ``(asid, va >> 21)`` to the covering segment's offset.  A
segment boundary can split a 2 MB region, so each entry also remembers the
intersection of the region with its segment and treats out-of-range hits
as misses — the conservative reading of the paper's "fixed granularity SC
entry filled from the segment table results".

Under virtualization the same structure caches direct gVA→MA offsets,
skipping the intermediate gPA (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.params import SegmentTranslationConfig
from repro.common.stats import StatGroup


@dataclass(slots=True)
class SegmentCacheEntry:
    """One cached region translation."""

    offset: int       # PA = VA + offset within the valid subrange
    valid_start: int  # VA of the covered subrange start (within the region)
    valid_end: int    # VA one past the covered subrange


class SegmentCache:
    """Fully associative, LRU, fixed-granularity translation cache."""

    def __init__(self, config: SegmentTranslationConfig | None = None) -> None:
        self.config = config or SegmentTranslationConfig()
        self.stats = StatGroup("segment_cache")
        self._counts = self.stats.counts
        self._entries: Dict[tuple[int, int], SegmentCacheEntry] = {}

    @property
    def latency(self) -> int:
        return self.config.segment_cache_latency

    @property
    def grain(self) -> int:
        return 1 << self.config.segment_cache_grain_shift

    def _region_of(self, asid: int, va: int) -> tuple[int, int]:
        return asid, va >> self.config.segment_cache_grain_shift

    def lookup(self, asid: int, va: int) -> Optional[int]:
        """Return the translated PA on a valid hit, else None."""
        counts = self._counts
        counts["lookups"] += 1
        key = self._region_of(asid, va)
        entry = self._entries.get(key)
        if entry is None or not entry.valid_start <= va < entry.valid_end:
            counts["misses"] += 1
            return None
        del self._entries[key]
        self._entries[key] = entry
        counts["hits"] += 1
        return va + entry.offset

    def fill(self, asid: int, va: int, seg_vbase: int, seg_vlimit: int,
             offset: int) -> None:
        """Install the region containing ``va``, clipped to its segment."""
        key = self._region_of(asid, va)
        region_start = key[1] << self.config.segment_cache_grain_shift
        region_end = region_start + self.grain
        entry = SegmentCacheEntry(
            offset=offset,
            valid_start=max(region_start, seg_vbase),
            valid_end=min(region_end, seg_vlimit),
        )
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.config.segment_cache_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._counts["evictions"] += 1
        self._entries[key] = entry
        self._counts["fills"] += 1

    def flush(self) -> None:
        self._entries.clear()
        self.stats.add("flushes")

    def hit_rate(self) -> float:
        return self.stats.hit_rate()
