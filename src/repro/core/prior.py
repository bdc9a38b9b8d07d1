"""Prior translation schemes the paper positions itself against.

* :class:`DirectSegmentMmu` — Basu et al., ISCA'13 (paper Section IV-A.2):
  one ``(base, limit, offset)`` register set per process maps a single
  large contiguous region with zero translation latency; everything else
  uses the conventional two-level TLB path
  (:class:`~repro.core.conventional.PagedMmu`).  Caches stay physical.

* :class:`RmmMmu` — Karakostas et al., ISCA'15 "Redundant Memory
  Mappings": a 32-entry fully associative *range TLB* operates alongside
  the L2 TLB (7 cycles) and refills the L1 TLB on range hits; paging
  remains as the redundant fallback.  It is the paged front end with
  only the TLB-miss walk replaced.  Works beautifully until the live
  range count exceeds 32 (Table III's thrashing workloads).

* :class:`EnigmaMmu` — Zhang et al. (paper Section II-B "Intermediate
  address space"): the core translates VA→intermediate through one huge
  fixed-granularity segment per address space (cheap, core-side), the
  whole cache hierarchy runs on intermediate addresses, and a
  conventional page-granularity delayed TLB
  (:meth:`~repro.tlb.delayed.DelayedTlb.translate`) translates
  intermediate→PA after LLC misses.  Synonyms are handled by mapping
  shared regions into one shared intermediate range, so no synonym
  filter is needed — but the delayed translation is stuck at page
  granularity, which is exactly the scalability limit (Figure 4) the
  paper's many-segment design lifts.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from repro.common.address import (
    BLOCKS_PER_PAGE,
    virtual_block_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig
from repro.core.conventional import PagedMmu
from repro.core.mmu_base import MmuBase, Outcome
from repro.osmodel.address_space import POLICY_SHARED
from repro.osmodel.kernel import Kernel
from repro.osmodel.segments import SegmentFault
from repro.segtrans.rmm import DirectSegment, RangeTlb
from repro.tlb.base import PERM_RW, WalkFn
from repro.tlb.delayed import DelayedTlb
from repro.tlb.walker import PageWalker


class DirectSegmentMmu(PagedMmu):
    """Single direct segment beside a conventional TLB hierarchy."""

    name = "direct_segment"

    def __init__(self, kernel: Kernel, config: Optional[SystemConfig] = None) -> None:
        super().__init__(kernel, config)
        self.segment = DirectSegment()
        self.stats.register(self.segment.stats)
        self._configured_asids: set[int] = set()

    def _ensure_configured(self, asid: int) -> None:
        """Lazy OS setup: point the registers at the process's largest
        segment (the paper's static big-memory allocation)."""
        if asid in self._configured_asids:
            return
        self._configured_asids.add(asid)
        segments = [s for s in self.kernel.segment_table.segments_sorted()
                    if s.asid == asid]
        if segments:
            self.segment.configure_from_segment(
                max(segments, key=lambda s: s.length))

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One access: direct-segment check, then the conventional TLB path."""
        self._accesses += 1
        self._ensure_configured(asid)
        pa = self.segment.translate(asid, va)
        front = 0
        if pa is None:
            # Fallback paging: conventional TLB path.
            front, pa = self.tlbs[core].translate(
                virtual_page_key(asid, va), self.miss_walks[core], asid, va)
        return self.physical_access(core, pa, is_write, front)


class RmmMmu(PagedMmu):
    """Redundant memory mappings: core-side 32-entry range TLB."""

    name = "rmm"

    #: Range-TLB entries: the RMM paper's 32 (Table III's thrashing point).
    RANGES = 32

    def __init__(self, kernel: Kernel, config: Optional[SystemConfig] = None) -> None:
        super().__init__(kernel, config)
        self.range_tlb = RangeTlb(kernel.segment_table, entries=self.RANGES)
        self.stats.register(self.range_tlb.stats)
        self.miss_walks = [partial(self._range_walk, walk)
                           for walk in self.miss_walks]

    def _range_walk(self, walk: WalkFn, asid: int,
                    va: int) -> Tuple[int, int, int, bool]:
        """L1+L2 TLB miss: the range TLB (probed in parallel with the L2
        TLB) usually saves the walk; outside every range, ``walk``."""
        try:
            pa, cycles, _ = self.range_tlb.lookup(asid, va)
        except SegmentFault:
            return walk(asid, va)
        return cycles, pa, PERM_RW, False

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One access: TLB hierarchy with the range TLB backing L2 misses."""
        self._accesses += 1
        front, pa = self.tlbs[core].translate(
            virtual_page_key(asid, va), self.miss_walks[core], asid, va)
        return self.physical_access(core, pa, is_write, front)


class EnigmaMmu(MmuBase):
    """Intermediate-address-space design with page-based delayed TLB."""

    name = "enigma"

    def __init__(self, kernel: Kernel, config: Optional[SystemConfig] = None) -> None:
        super().__init__(kernel, config)
        self.enigma_stats = self.stats.group("enigma")
        self.delayed_tlb = DelayedTlb(self.config.delayed_tlb)
        self.stats.register(self.delayed_tlb.stats)
        self.walker = PageWalker(self.config.walker, kernel.pte_path,
                                 partial(self.charge_physical_read, 0),
                                 name="delayed_walker")
        self.stats.register(self.walker.stats)
        kernel.on_shootdown(self._shootdown)
        kernel.on_page_flush(self._flush_page)
        # Shared-region intermediate ranges are allocated from a common
        # pool so all mappers of a region agree on one intermediate name.
        self._shared_intermediate: Dict[int, int] = {}  # pbase -> namespace id
        self._next_shared_id = 1

    #: Latency of the first-level (VA→intermediate) segment translation;
    #: a handful of coarse segment registers on the core-to-L1 path.
    FIRST_LEVEL_CYCLES = 1

    def _shootdown(self, asid: int, page_va: int) -> None:
        intermediate_asid, iva = self._intermediate(asid, page_va)
        self.delayed_tlb.shootdown(virtual_page_key(intermediate_asid, iva))

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        intermediate_asid, iva = self._intermediate(asid, page_va)
        base_key = virtual_block_key(intermediate_asid, iva)
        self.caches.flush_blocks(range(base_key, base_key + BLOCKS_PER_PAGE))

    def _intermediate(self, asid: int, va: int) -> tuple[int, int]:
        """First-level translation: (ASID, VA) → intermediate name.

        Private ranges map 1:1 under the process's intermediate partition;
        shared regions map through a common partition keyed by the shared
        backing so synonyms collapse to one intermediate name.
        """
        process = self.kernel.process(asid)
        vma = process.find_vma(va)
        if vma is not None and vma.policy == POLICY_SHARED:
            assert vma.shared_pbase is not None
            namespace = self._shared_intermediate.get(vma.shared_pbase)
            if namespace is None:
                namespace = self._pick_shared_id()
                self._shared_intermediate[vma.shared_pbase] = namespace
            return namespace, vma.shared_pbase + (va - vma.vbase)
        return asid, va

    def _pick_shared_id(self) -> int:
        # Intermediate ASID 0 partitions (one per shared region) live in
        # the ASID space above the process range.
        self._next_shared_id += 1
        return 0xF000 + self._next_shared_id

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One access: first-level segment, intermediate-named caches, delayed TLB."""
        self._accesses += 1
        self.enigma_stats.counts["accesses"] += 1
        intermediate_asid, iva = self._intermediate(asid, va)
        front = self.FIRST_LEVEL_CYCLES
        key = virtual_block_key(intermediate_asid, iva)
        hit_level, cache_cycles, _ = self.caches.access(core, key, is_write)
        delayed = dram = 0
        if hit_level == "memory":
            # The entry is named by the intermediate page and filled by
            # the process's own walk; both keep the VA's page offset.
            pa, delayed, _, _ = self.delayed_tlb.translate(
                virtual_page_key(intermediate_asid, iva), self.walker.walk,
                asid, va)
            dram = self.dram.access(pa, is_write)
        else:
            pa = self.kernel.translate(asid, va).pa
        return front, cache_cycles, delayed, dram, hit_level, pa
