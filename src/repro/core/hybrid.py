"""Hybrid virtual caching MMU — the paper's proposed architecture.

Per-access flow (Figure 1):

1. The per-process **synonym filter** is probed in parallel with the L1
   access, so for non-synonym addresses it exposes no latency.
2. **Non-synonym** (the common case): the access proceeds through the
   whole hierarchy under ``ASID+VA``.  Translation happens only if the
   LLC misses, via a pluggable **delayed translation engine** — a large
   page-granularity delayed TLB (Section IV-A) or many-segment
   translation (Section IV-C).
3. **Synonym candidates**: a small conventional **synonym TLB** translates
   up-front.  True synonyms proceed under their physical address; false
   positives hit a *non-synonym marker entry* and fall back to the
   ASID+VA path (first occurrence pays a page walk to discover this).
4. Permission bits ride in every cached line; a write to a r/o line
   raises a permission fault resolved by the OS (copy-on-write for
   content-shared pages, Section III-D).
"""

from __future__ import annotations

from functools import partial
from typing import Protocol, Tuple

from repro.common.address import (
    BLOCKS_PER_PAGE,
    PAGE_MASK,
    PAGE_SHIFT,
    physical_block_key,
    virtual_block_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.core.mmu_base import MmuBase, Outcome
from repro.obs.events import (
    STAGE_DELAYED_TLB,
    STAGE_FILTER,
    STAGE_PAGE_WALK,
    STAGE_SEGMENT_WALK,
    STAGE_SYNONYM_TLB,
)
from repro.obs.histogram import Histogram
from repro.osmodel.kernel import Kernel
from repro.osmodel.segments import SegmentFault
from repro.segtrans.many_segment import ManySegmentTranslator
from repro.tlb.base import SetAssociativeTlb
from repro.tlb.delayed import DelayedTlb
from repro.tlb.walker import PageWalker

#: Cycles charged for an OS permission-fault (CoW) trap-and-fix.
COW_FAULT_CYCLES = 2000


class DelayedEngine(Protocol):
    """Delayed translation engines: ASID+VA → (PA, cycles, permissions)."""

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]: ...

    def shootdown(self, asid: int, page_va: int) -> None: ...


class DelayedTlbEngine:
    """Page-granularity delayed translation (Figure 4's subject)."""

    def __init__(self, kernel: Kernel, mmu: "HybridMmu") -> None:
        self.kernel = kernel
        self.mmu = mmu
        self.tlb = DelayedTlb(mmu.config.delayed_tlb)
        self.walker = PageWalker(mmu.config.walker, kernel.pte_path,
                                 partial(mmu.charge_physical_read, 0),
                                 name="delayed_walker")
        mmu.stats.register(self.tlb.stats)
        mmu.stats.register(self.walker.stats)
        self.latency_hist = mmu.register_histogram(
            Histogram("delayed_tlb_engine_cycles"))
        mmu.register_histogram(self.walker.cycles_hist)

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]:
        pa, cycles, permissions, hit = self.tlb.translate(
            virtual_page_key(asid, va), self.walker.walk, asid, va)
        self.latency_hist.record(cycles)
        if self.mmu.tracer.recording:
            self.mmu.tracer.stage(STAGE_DELAYED_TLB, cycles=cycles, hit=hit)
        return pa, cycles, permissions

    def shootdown(self, asid: int, page_va: int) -> None:
        self.tlb.shootdown(virtual_page_key(asid, page_va))


class ManySegmentEngine:
    """Variable-length segment delayed translation with paging fallback.

    Addresses outside every segment (e.g. demand-paged mappings) fall back
    to a page walk, mirroring how direct-segment/RMM systems keep paging
    available alongside ranges.  The translator's structures are sized by
    ``mmu.config.segments``.
    """

    def __init__(self, kernel: Kernel, mmu: "HybridMmu",
                 use_segment_cache: bool = True) -> None:
        self.kernel = kernel
        self.mmu = mmu
        self.translator = ManySegmentTranslator(
            kernel, mmu.config.segments,
            memory_charge=partial(mmu.charge_physical_read, 0),
            use_segment_cache=use_segment_cache)
        self.fallback_walker = PageWalker(
            mmu.config.walker, kernel.pte_path,
            partial(mmu.charge_physical_read, 0), name="fallback_walker")
        self.stats = StatGroup("many_segment_engine")
        mmu.stats.register(self.translator.stats)
        mmu.stats.register(self.translator.index_cache.stats)
        mmu.stats.register(self.translator.hw_table.stats)
        if self.translator.segment_cache is not None:
            mmu.stats.register(self.translator.segment_cache.stats)
        mmu.stats.register(self.stats)
        mmu.register_histogram(self.translator.depth_hist)
        mmu.register_histogram(self.translator.latency_hist)
        mmu.register_histogram(self.fallback_walker.cycles_hist)

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]:
        try:
            pa, cycles, permissions, sc_hit, nodes_read = self.translator.translate(
                asid, va)
        except SegmentFault:
            self.stats.counts["paging_fallbacks"] += 1
            cycles, pa, permissions, _ = self.fallback_walker.walk(asid, va)
            if self.mmu.tracer.recording:
                self.mmu.tracer.stage(STAGE_PAGE_WALK, cycles=cycles,
                                      fallback=True)
            return pa, cycles, permissions
        if self.mmu.tracer.recording:
            self.mmu.tracer.stage(STAGE_SEGMENT_WALK, cycles=cycles,
                                  sc_hit=sc_hit, nodes_read=nodes_read)
        return pa, cycles, permissions

    def shootdown(self, asid: int, page_va: int) -> None:
        # Segment translations are invalidated via the segment-table
        # generation mechanism; page-granularity shootdowns are a no-op.
        return None


class HybridMmu(MmuBase):
    """Hybrid virtual caching with pluggable delayed translation.

    ``delayed`` picks the engine behind the LLC: ``"tlb"`` (a delayed
    TLB of ``config.delayed_tlb``) or ``"segments"`` (many-segment
    translation sized by ``config.segments``, with its segment cache
    unless ``use_segment_cache`` is false).  ``parallel_delayed`` runs
    the translation under the LLC probe instead of after the miss.
    """

    name = "hybrid"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None,
                 delayed: str = "tlb", use_segment_cache: bool = True,
                 parallel_delayed: bool = False) -> None:
        super().__init__(kernel, config)
        self.hybrid_stats = self.stats.group("hybrid")
        self._hybrid_counts = self.hybrid_stats.counts
        # Section IV-C: delayed translation can run in parallel with the
        # LLC access (hiding its latency under the LLC's 27 cycles at the
        # cost of translating on every L2 miss, i.e. extra energy) or
        # serially after the miss (the paper's choice, with the segment
        # cache recovering most of the latency).
        self.parallel_delayed = parallel_delayed
        self.synonym_tlb = SetAssociativeTlb(self.config.synonym_tlb, "synonym_tlb")
        self.stats.register(self.synonym_tlb.stats)
        self.synonym_walker = PageWalker(
            self.config.walker, kernel.pte_path,
            partial(self.charge_physical_read, 0), name="synonym_walker")
        self.stats.register(self.synonym_walker.stats)
        self.register_histogram(self.synonym_walker.cycles_hist)
        if delayed == "tlb":
            self.delayed: DelayedEngine = DelayedTlbEngine(kernel, self)
        elif delayed == "segments":
            self.delayed = ManySegmentEngine(kernel, self, use_segment_cache)
        else:
            raise ValueError(f"unknown delayed translation engine {delayed!r}")
        self.delayed_kind = delayed
        kernel.on_shootdown(self._shootdown)
        kernel.on_page_flush(self._flush_page)
        kernel.on_permission_change(self._permission_change)

    # ------------------------------------------------------------------ #
    # OS callbacks (Section III-A: state-dependent shootdown routing)
    # ------------------------------------------------------------------ #

    def _permission_change(self, asid: int, page_va: int,
                           permissions: int) -> None:
        """Downgrade cached copies in place (Section III-A / III-D)."""
        base_key = virtual_block_key(asid, page_va)
        self.caches.downgrade_blocks(
            range(base_key, base_key + BLOCKS_PER_PAGE), permissions)

    def _shootdown(self, asid: int, page_va: int) -> None:
        page_key = virtual_page_key(asid, page_va)
        self.synonym_tlb.invalidate(page_key)
        self.delayed.shootdown(asid, page_va)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        if was_shared:
            base_key = physical_block_key(
                self.kernel.translate(asid, page_va).pa)
        else:
            base_key = virtual_block_key(asid, page_va)
        self.caches.flush_blocks(range(base_key, base_key + BLOCKS_PER_PAGE))

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One memory access through the hybrid virtual-caching datapath."""
        self._accesses += 1
        counts = self._hybrid_counts
        counts["accesses"] += 1
        process = self.kernel.process(asid)
        front = self.config.synonym_filter.latency  # overlapped: 0 by default

        candidate = process.synonym_filter.is_synonym_candidate(va)
        if self.tracer.recording:
            self.tracer.stage(STAGE_FILTER, cycles=front, candidate=candidate)
        if candidate:
            counts["synonym_candidates"] += 1
            key, extra_front, permissions, pa = self._resolve_candidate(asid, va)
            front += extra_front
            # Synonym path: the TLB checks permissions *before* the cache
            # access (Section III-A "Permission Support").
            if pa is not None and is_write and not (permissions or 0) & 0x2:
                counts["permission_faults"] += 1
                self.kernel.handle_cow_fault(process, va)
                r_front, r_cache, r_delayed, r_dram, r_level, r_pa = self.access(
                    core, asid, va, is_write=True)
                return (front + COW_FAULT_CYCLES + r_front, r_cache,
                        r_delayed, r_dram, r_level, r_pa)
        else:
            counts["tlb_bypasses"] += 1
            key = virtual_block_key(asid, va)
            permissions = None
            pa = None

        return self._finish_access(core, asid, va, is_write, key, front,
                                   permissions, pa)

    def _resolve_candidate(self, asid: int, va: int):
        """Synonym-TLB path for filter hits; detects false positives."""
        entry, front, hit = self.synonym_tlb.translate(
            virtual_page_key(asid, va), self.synonym_walker.walk, asid, va)
        if self.tracer.recording:
            self.tracer.stage(STAGE_SYNONYM_TLB, cycles=front, hit=hit,
                              is_synonym=entry.is_synonym)
        if entry.is_synonym:
            self._hybrid_counts["true_synonym_accesses"] += 1
            pa = (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK)
            return physical_block_key(pa), front, entry.permissions, pa
        # False positive: the marker entry redirects to the ASID+VA path.
        self._hybrid_counts["false_positive_accesses"] += 1
        return virtual_block_key(asid, va), front, None, None

    def _finish_access(self, core: int, asid: int, va: int, is_write: bool,
                       key: int, front: int, permissions, pa) -> Outcome:
        is_virtual_key = pa is None
        delayed_cycles = 0

        hit_level, cache_cycles, line_permissions = self.caches.access(
            core, key, is_write, 0x3)
        if is_virtual_key:
            if hit_level == "memory":
                pa, delayed_cycles, permissions = self.delayed.translate(asid, va)
                if self.parallel_delayed:
                    # The translation ran under the LLC probe; only the
                    # part exceeding the LLC latency is exposed.
                    hidden = self.config.llc.latency
                    delayed_cycles = max(0, delayed_cycles - hidden)
                # Install the delayed translation's permissions in every
                # copy just filled (the paper's fill-time permission
                # delivery).
                self.caches.install_permissions(core, key, permissions)
            else:
                # A hit carries the permission bits of the line it read.
                permissions = line_permissions
                if self.parallel_delayed and hit_level == "llc":
                    # Parallel mode translates speculatively on every L2
                    # miss; an LLC hit wastes the probe (energy, no
                    # latency).
                    pa = self.delayed.translate(asid, va)[0]
                    self._hybrid_counts["wasted_parallel_translations"] += 1
                else:
                    # The functional oracle names the page the hit read.
                    pa = self.kernel.translate(asid, va).pa

        dram = self.dram.access(pa, is_write) if hit_level == "memory" else 0

        # Permission enforcement on the cached copy (Section III-D).
        if is_virtual_key and is_write and not permissions & 0x2:
            return self._handle_permission_fault(core, asid, va, front,
                                                 cache_cycles, delayed_cycles,
                                                 dram)
        return front, cache_cycles, delayed_cycles, dram, hit_level, pa

    def _handle_permission_fault(self, core: int, asid: int, va: int,
                                 front: int, cache_cycles: int,
                                 delayed_cycles: int, dram: int) -> Outcome:
        """Write to a r/o non-synonym line: OS copy-on-write, then retry."""
        self._hybrid_counts["permission_faults"] += 1
        process = self.kernel.process(asid)
        self.kernel.handle_cow_fault(process, va)
        r_front, r_cache, r_delayed, r_dram, r_level, r_pa = self.access(
            core, asid, va, is_write=True)
        return (front + COW_FAULT_CYCLES + r_front, cache_cycles + r_cache,
                delayed_cycles + r_delayed, dram + r_dram, r_level, r_pa)

    # ------------------------------------------------------------------ #
    # Reporting helpers (Table II inputs)
    # ------------------------------------------------------------------ #

    def histograms(self) -> dict:
        """Registered histograms plus the aggregated filter occupancy.

        Synonym filters are per-process OS state created after the MMU,
        so their occupancy samples are merged across the kernel's live
        processes at snapshot time rather than registered up front.
        """
        hists = super().histograms()
        occupancy = Histogram("synonym_filter_occupancy")
        for process in self.kernel.processes():
            occupancy.merge(process.synonym_filter.occupancy_hist)
        if occupancy.count:
            hists[occupancy.name] = occupancy
        return hists

    def false_positive_rate(self) -> float:
        """False-positive candidate accesses / all accesses."""
        return self.hybrid_stats.ratio("false_positive_accesses", "accesses")

    def tlb_access_reduction(self) -> float:
        """Fraction of accesses that bypassed all core-side TLBs."""
        return self.hybrid_stats.ratio("tlb_bypasses", "accesses")

    def total_tlb_misses(self) -> int:
        """Synonym-TLB misses + delayed-translation misses."""
        misses = self.synonym_tlb.stats["misses"]
        if isinstance(self.delayed, DelayedTlbEngine):
            misses += self.delayed.tlb.misses()
        else:
            engine = self.delayed
            assert isinstance(engine, ManySegmentEngine)
            misses += engine.translator.stats["full_walks"]
            misses += engine.stats["paging_fallbacks"]
        return misses
