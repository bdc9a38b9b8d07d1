"""Processes, address spaces and virtual memory areas (VMAs).

Each process owns an ASID, a radix page table, a synonym filter, and a
segment allocator.  VMAs record how a virtual range is backed:

* ``demand``  — frames allocated one page at a time on first touch
  (conventional demand paging; no segments, scattered frames);
* ``eager``   — the range is backed by eagerly allocated contiguous
  segments (Section IV-B).  Pages still *map* on first touch so that the
  paper's utilization statistic (touched / allocated) can be measured,
  but the physical address of every page is fixed by the segment at
  allocation time;
* ``shared``  — a synonym region: the backing frames belong to a shared
  physical extent that other address spaces also map (possibly at
  different virtual addresses).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.address import PAGE_SHIFT, PAGE_SIZE
from repro.common.params import SynonymFilterConfig
from repro.filters.synonym_filter import SynonymFilter
from repro.osmodel.frames import FrameAllocator
from repro.osmodel.pagetable import PERM_RW, PageTable
from repro.osmodel.segments import OsSegmentTable, Segment, SegmentAllocator

POLICY_DEMAND = "demand"
POLICY_EAGER = "eager"
POLICY_SHARED = "shared"


@dataclass
class Vma:
    """One mapped virtual range and its backing policy."""

    vbase: int
    length: int
    policy: str
    permissions: int = PERM_RW
    shared: bool = False
    segments: List[Segment] = field(default_factory=list)
    # For shared VMAs: physical byte address backing vbase.
    shared_pbase: Optional[int] = None

    @property
    def vlimit(self) -> int:
        return self.vbase + self.length

    def contains(self, va: int) -> bool:
        return self.vbase <= va < self.vlimit

    def segment_for(self, va: int) -> Optional[Segment]:
        for seg in self.segments:
            if seg.contains(va):
                return seg
        return None


class Process:
    """A simulated process: ASID + page table + filter + VMAs."""

    def __init__(self, name: str, asid: int, frames: FrameAllocator,
                 segment_table: OsSegmentTable,
                 filter_config: SynonymFilterConfig | None = None,
                 va_base: int = 0x10000000) -> None:
        self.name = name
        self.asid = asid
        self.page_table = PageTable(frames)
        self.synonym_filter = SynonymFilter(filter_config)
        self.segment_allocator = SegmentAllocator(asid, segment_table, frames,
                                                  va_base=va_base)
        self._vmas: List[Vma] = []
        self._vma_bases: List[int] = []
        # Shared (mmap) area lives far from the heap, as on real systems
        # (Linux places shared mappings near 0x7f...).  Beyond realism,
        # this is load-bearing for the synonym filter: the XOR-fold hashes
        # distinguish regions by their address bits, and co-locating
        # shared and private ranges would collapse the hash space.
        self._mmap_cursor = 0x7F00_0000_0000 | ((asid & 0x3FF) << 32)
        self.shared_page_list: List[int] = []  # authoritative list for rebuilds

    # ------------------------------------------------------------------ #
    # VMA bookkeeping
    # ------------------------------------------------------------------ #

    def reserve_va(self, size_bytes: int, area: str = "heap") -> int:
        """Carve a fresh virtual range in the chosen area.

        ``heap`` ranges come from the segment allocator's heap cursor, so
        they interleave with eager-segment allocations and reservations
        without overlap; ``mmap`` ranges come from the distant
        shared-mapping area.
        """
        size_bytes = (size_bytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if area == "mmap":
            vbase = self._mmap_cursor
            self._mmap_cursor = vbase + size_bytes + PAGE_SIZE  # guard page
            return vbase
        return self.segment_allocator.take_va(size_bytes)

    def add_vma(self, vma: Vma) -> Vma:
        index = bisect_right(self._vma_bases, vma.vbase)
        self._vma_bases.insert(index, vma.vbase)
        self._vmas.insert(index, vma)
        return vma

    def find_vma(self, va: int) -> Optional[Vma]:
        index = bisect_right(self._vma_bases, va) - 1
        if index < 0:
            return None
        vma = self._vmas[index]
        return vma if vma.contains(va) else None

    def remove_vma(self, vma: Vma) -> None:
        index = self._vmas.index(vma)
        del self._vmas[index]
        del self._vma_bases[index]

    def vmas(self) -> List[Vma]:
        return list(self._vmas)

    # ------------------------------------------------------------------ #
    # Synonym bookkeeping
    # ------------------------------------------------------------------ #

    def record_shared_page(self, va: int) -> None:
        """Track a shared page authoritatively and in the Bloom filters."""
        page = va & ~(PAGE_SIZE - 1)
        self.shared_page_list.append(page)
        self.synonym_filter.mark_shared(page)

    def record_shared_range(self, vbase: int, length: int) -> None:
        """:meth:`record_shared_page` for every page of a range, in order."""
        self.shared_page_list.extend(
            range(vbase & ~(PAGE_SIZE - 1), vbase + length, PAGE_SIZE))
        self.synonym_filter.mark_shared_range(vbase, length)

    def rebuild_filter(self) -> None:
        """OS rebuild of a saturated filter from the authoritative list."""
        self.synonym_filter.rebuild(self.shared_page_list)

    def mapped_bytes(self) -> int:
        return self.page_table.mapped_pages << PAGE_SHIFT
