"""Virtualized MMU front-ends (Section V).

* :class:`VirtConventionalMmu` — the comparison point: physically (machine)
  addressed caches behind per-core TLBs caching gVA→MA; TLB misses pay a
  2-D nested walk accelerated by a nested TLB + 2-D walk cache (the
  "state-of-the-art translation cache" baseline).

* :class:`VirtHybridMmu` — hybrid virtual caching under virtualization:
  the ASID is VMID-extended, guest and host synonym filters are both
  probed with the gVA, non-synonym blocks travel the hierarchy as
  ASID+gVA, and the 2-D translation is delayed past the LLC — either a
  delayed gVA→MA TLB filled by nested walks, or two-step segment
  translation (guest many-segment gVA→gPA, then host segment gPA→MA)
  short-circuited by a 128-entry gVA→MA segment cache that skips the
  intermediate gPA entirely (Section V-B).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

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
from repro.osmodel.segments import SegmentFault
from repro.segtrans.many_segment import ManySegmentTranslator
from repro.segtrans.segment_cache import SegmentCache
from repro.tlb.base import SetAssociativeTlb
from repro.tlb.delayed import DelayedTlb
from repro.tlb.hierarchy import TlbHierarchy
from repro.virt.hypervisor import Hypervisor, VirtualMachine
from repro.virt.twod_walker import TwoDWalker


class _VirtMmuBase(MmuBase):
    """Shared plumbing: a single-VM datapath over machine memory."""

    def __init__(self, hypervisor: Hypervisor, vm: VirtualMachine,
                 config: Optional[SystemConfig] = None) -> None:
        # The guest kernel provides the functional oracle surface the
        # common machinery expects (translate/pte_path), but data blocks
        # live at machine addresses supplied by the 2-D paths below.
        super().__init__(vm.guest_kernel, config or hypervisor.guest_config)
        self.hypervisor = hypervisor
        self.vm = vm

    def asid_of(self, guest_asid: int) -> int:
        """VMID-extended global ASID for a guest process (Section V)."""
        return self.hypervisor.global_asid(self.vm, guest_asid)


class VirtConventionalMmu(_VirtMmuBase):
    """Baseline virtualized system: gVA→MA TLBs + accelerated 2-D walks."""

    name = "virt_baseline"

    def __init__(self, hypervisor: Hypervisor, vm: VirtualMachine,
                 config: Optional[SystemConfig] = None) -> None:
        super().__init__(hypervisor, vm, config)
        cfg = self.config
        self.tlbs = [TlbHierarchy(cfg.l1_tlb, cfg.l2_tlb, f"vtlb_core{c}")
                     for c in range(cfg.cores)]
        self.walker = TwoDWalker(vm, cfg.walker,
                                 partial(self.charge_physical_read, 0))
        for c in range(cfg.cores):
            self.stats.register(self.tlbs[c].stats)
        self.stats.register(self.walker.stats)
        self.stats.register(self.walker.nested_tlb.stats)
        vm.guest_kernel.on_shootdown(self._guest_shootdown)

    def _guest_shootdown(self, guest_asid: int, page_va: int) -> None:
        key = virtual_page_key(self.asid_of(guest_asid), page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        self._accesses += 1
        front, ma = self.tlbs[core].translate(
            virtual_page_key(self.asid_of(asid), va), self.walker.walk,
            asid, va)
        return self.physical_access(core, ma, is_write, front)


class Delayed2dTlbEngine:
    """Delayed gVA→MA TLB filled by nested walks."""

    def __init__(self, mmu: "VirtHybridMmu") -> None:
        self.mmu = mmu
        self.tlb = DelayedTlb(mmu.config.delayed_tlb)
        mmu.stats.register(self.tlb.stats)

    def translate(self, guest_asid: int, gva: int) -> Tuple[int, int, int]:
        return self.tlb.translate(
            virtual_page_key(self.mmu.asid_of(guest_asid), gva),
            self.mmu.walker.walk, guest_asid, gva)[:3]


class DelayedSegment2dEngine:
    """Two-step segment translation with a gVA→MA segment cache.

    Guest many-segment translation produces the gPA; a host-segment lookup
    (the hypervisor's own variable-length mapping) produces the MA.  The
    segment cache stores the composed gVA→MA offset for 2 MB regions,
    clipped to the intersection of the guest and host segments, skipping
    the gPA on hits (Section V-B).
    """

    def __init__(self, mmu: "VirtHybridMmu") -> None:
        self.mmu = mmu
        self.stats = StatGroup("delayed_2d_segments")
        self.guest_translator = ManySegmentTranslator(
            mmu.vm.guest_kernel, mmu.config.segments,
            memory_charge=partial(mmu.charge_physical_read, 0),
            use_segment_cache=False)
        self.segment_cache = SegmentCache(mmu.config.segments)
        mmu.stats.register(self.guest_translator.stats)
        mmu.stats.register(self.guest_translator.index_cache.stats)
        mmu.stats.register(self.segment_cache.stats)
        mmu.stats.register(self.stats)

    def translate(self, guest_asid: int, gva: int) -> Tuple[int, int, int]:
        global_asid = self.mmu.asid_of(guest_asid)
        cycles = self.segment_cache.latency
        ma = self.segment_cache.lookup(global_asid, gva)
        counts = self.stats.counts
        if ma is not None:
            counts["sc_hits"] += 1
            return ma, cycles, 0x3

        try:
            gpa, guest_cycles, _, _, _ = self.guest_translator.translate(
                guest_asid, gva)
        except SegmentFault:
            # Uncovered gVA (demand mapping): full nested walk fallback.
            counts["nested_fallbacks"] += 1
            walk_cycles, ma, permissions, _, _ = self.mmu.walker.walk(guest_asid, gva)
            return ma, cycles + walk_cycles, permissions
        cycles += guest_cycles
        host_segment = self.mmu.vm.host_segment_for(gpa)
        cycles += self.mmu.config.segments.segment_table_latency
        ma = gpa + host_segment.offset
        counts["two_step_walks"] += 1

        # Compose the clipped validity window in gVA space.
        guest_seg = self.mmu.vm.guest_kernel.segment_table.find(guest_asid, gva)
        gva_lo = max(guest_seg.vbase,
                     host_segment.gpa_base - guest_seg.offset)
        gva_hi = min(guest_seg.vlimit,
                     host_segment.gpa_base + host_segment.length
                     - guest_seg.offset)
        self.segment_cache.fill(global_asid, gva, gva_lo, gva_hi, ma - gva)
        return ma, cycles, guest_seg.permissions


class VirtHybridMmu(_VirtMmuBase):
    """Hybrid virtual caching for virtualized systems."""

    name = "virt_hybrid"

    def __init__(self, hypervisor: Hypervisor, vm: VirtualMachine,
                 config: Optional[SystemConfig] = None,
                 delayed: str = "segments") -> None:
        super().__init__(hypervisor, vm, config)
        self.hybrid_stats = self.stats.group("hybrid")
        self.synonym_tlb = SetAssociativeTlb(self.config.synonym_tlb,
                                             "synonym_tlb")
        self.stats.register(self.synonym_tlb.stats)
        self.walker = TwoDWalker(vm, self.config.walker,
                                 partial(self.charge_physical_read, 0))
        self.stats.register(self.walker.stats)
        self.stats.register(self.walker.nested_tlb.stats)
        if delayed == "tlb":
            self.delayed = Delayed2dTlbEngine(self)
        elif delayed == "segments":
            self.delayed = DelayedSegment2dEngine(self)
        else:
            raise ValueError(f"unknown delayed engine {delayed!r}")
        self.delayed_kind = delayed
        vm.guest_kernel.on_shootdown(self._guest_shootdown)
        vm.guest_kernel.on_page_flush(self._guest_flush_page)

    def _guest_shootdown(self, guest_asid: int, page_va: int) -> None:
        page_key = virtual_page_key(self.asid_of(guest_asid), page_va)
        self.synonym_tlb.invalidate(page_key)
        if isinstance(self.delayed, Delayed2dTlbEngine):
            self.delayed.tlb.shootdown(page_key)

    def _guest_flush_page(self, guest_asid: int, page_va: int,
                          was_shared: bool) -> None:
        if was_shared:
            base_key = physical_block_key(
                self.vm.translate_2d(guest_asid, page_va)[0])
        else:
            base_key = virtual_block_key(self.asid_of(guest_asid), page_va)
        self.caches.flush_blocks(range(base_key, base_key + BLOCKS_PER_PAGE))

    # ------------------------------------------------------------------ #
    # Synonym detection: guest filter OR host filter, both keyed by gVA
    # ------------------------------------------------------------------ #

    def _is_candidate(self, guest_asid: int, gva: int) -> bool:
        process = self.vm.guest_kernel.process(guest_asid)
        return (process.synonym_filter.is_synonym_candidate(gva)
                or self.vm.host_filter.is_synonym_candidate(gva))

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        self._accesses += 1
        counts = self.hybrid_stats.counts
        counts["accesses"] += 1
        front = self.config.synonym_filter.latency

        if self._is_candidate(asid, va):
            counts["synonym_candidates"] += 1
            key, extra, ma = self._resolve_candidate(asid, va)
            front += extra
        else:
            counts["tlb_bypasses"] += 1
            key = virtual_block_key(self.asid_of(asid), va)
            ma = None

        hit_level, cache_cycles, _ = self.caches.access(core, key, is_write)
        delayed_cycles = 0
        if hit_level == "memory" and ma is None:
            ma, delayed_cycles, _perms = self.delayed.translate(asid, va)
            if self._detect_late_synonym(core, asid, va, key):
                # Section V-A special case: the guest remapped this gVA
                # onto a hypervisor-shared frame without the hypervisor's
                # inverse map knowing the new name.  The delayed 2-D walk
                # just exposed it: raise to the hypervisor, which marks
                # the host filter, and retry through the synonym path.
                r_front, r_cache, r_delayed, r_dram, r_level, r_ma = self.access(
                    core, asid, va, is_write)
                return (front + self.LATE_SYNONYM_TRAP_CYCLES + r_front,
                        cache_cycles + r_cache, delayed_cycles + r_delayed,
                        r_dram, r_level, r_ma)
        if ma is None:
            ma = self.vm.translate_2d(asid, va)[0]
        dram = self.dram.access(ma, is_write) if hit_level == "memory" else 0
        return front, cache_cycles, delayed_cycles, dram, hit_level, ma

    #: OS/hypervisor trap cost for a late hypervisor-synonym discovery.
    LATE_SYNONYM_TRAP_CYCLES = 1500

    def _detect_late_synonym(self, core: int, asid: int, va: int,
                             key: int) -> bool:
        """Catch gVAs that reached the non-synonym path but whose backing
        frame is hypervisor-shared; mark the host filter and purge the
        wrongly (virtually) named lines."""
        if self.vm.host_synonym(self.vm.guest_kernel.translate(asid, va).pa):
            self.hybrid_stats.counts["late_synonym_detections"] += 1
            self.vm.host_filter.mark_shared(va)
            self.caches.flush_blocks(range(key, key + BLOCKS_PER_PAGE))
            return True
        return False

    def _resolve_candidate(self, guest_asid: int, gva: int):
        entry, front, _ = self.synonym_tlb.translate(
            virtual_page_key(self.asid_of(guest_asid), gva), self.walker.walk,
            guest_asid, gva)
        if entry.is_synonym:
            self.hybrid_stats.counts["true_synonym_accesses"] += 1
            ma = (entry.pfn << PAGE_SHIFT) | (gva & PAGE_MASK)
            return physical_block_key(ma), front, ma
        self.hybrid_stats.counts["false_positive_accesses"] += 1
        return virtual_block_key(self.asid_of(guest_asid), gva), front, None

    def tlb_access_reduction(self) -> float:
        return self.hybrid_stats.ratio("tlb_bypasses", "accesses")
