"""Physically addressed baseline MMU (the paper's comparison point).

Translation sits on the critical core-to-L1 path: every access probes the
L1 TLB (overlapped with L1 indexing, VIPT-style, so a hit exposes no extra
cycles), an L1-TLB miss exposes the 7-cycle L2 TLB, and a full TLB miss
blocks the access for a hardware page walk whose PTE reads travel through
the cache hierarchy.  All cache levels are physically tagged, so nothing
proceeds until the translation resolves.

:class:`PagedMmu` is that paged front end on its own: the per-core TLB
hierarchies and walkers, the shootdown listener and the TLB → walk → fill
step.  The baseline and the prior schemes that keep paging beside their
ranges (:mod:`repro.core.prior`) build on it.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from repro.common.address import (
    BLOCKS_PER_PAGE,
    PAGE_MASK,
    PAGE_SHIFT,
    physical_block_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig
from repro.core.mmu_base import MmuBase, Outcome
from repro.osmodel.kernel import Kernel
from repro.tlb.base import TlbEntry
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker


class PagedMmu(MmuBase):
    """Per-core two-level TLBs and page walkers before physical caches.

    Registers each core's ``tlb_core{c}`` and ``walker_core{c}`` stat
    groups and a shootdown listener that invalidates every core's TLBs.
    """

    def __init__(self, kernel: Kernel, config: SystemConfig | None) -> None:
        super().__init__(kernel, config)
        cfg = self.config
        self.tlbs = [TlbHierarchy(cfg.l1_tlb, cfg.l2_tlb, f"tlb_core{c}")
                     for c in range(cfg.cores)]
        self.walkers = [
            PageWalker(cfg.walker, kernel.pte_path,
                       partial(self.charge_physical_read, c),
                       name=f"walker_core{c}")
            for c in range(cfg.cores)
        ]
        for tlb, walker in zip(self.tlbs, self.walkers):
            self.stats.register(tlb.stats)
            self.stats.register(walker.stats)
        kernel.on_shootdown(self._shootdown)

    def _shootdown(self, asid: int, page_va: int) -> None:
        key = virtual_page_key(asid, page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)

    def translate(self, core: int, asid: int, va: int) -> Tuple[int, int]:
        """TLB hierarchy, then :meth:`tlb_miss` and a fill on a miss.

        Returns ``(front_cycles, pa)``: nothing on an L1-TLB hit (it
        overlaps the L1 access), the L2-TLB latency on an L2 hit, and the
        miss step's cycles on a miss.
        """
        page_key = virtual_page_key(asid, va)
        tlb = self.tlbs[core]
        entry, level = tlb.lookup(page_key)
        if entry is None:
            front, pa, permissions = self.tlb_miss(core, asid, va)
            tlb.fill(TlbEntry(page_key, pa >> PAGE_SHIFT, True, permissions))
            return front, pa
        front = self.config.l2_tlb.latency if level == "l2" else 0
        return front, (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK)

    def tlb_miss(self, core: int, asid: int, va: int) -> Tuple[int, int, int]:
        """Both TLB levels missed: walk the page table.

        Returns ``(front_cycles, pa, permissions)``; the front cycles are
        the L2-TLB latency plus the walk.
        """
        cycles, pa, permissions, _ = self.walkers[core].walk(asid, va)
        return self.config.l2_tlb.latency + cycles, pa, permissions


class ConventionalMmu(PagedMmu):
    """Baseline: per-core two-level TLBs before physically addressed caches."""

    name = "baseline"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
        super().__init__(kernel, config)
        for tlb in self.tlbs:
            self.stats.register(tlb.l1.stats)
            self.stats.register(tlb.l2.stats)
        kernel.on_page_flush(self._flush_page)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        # Physical caches: flush the page's physical blocks.
        base_key = physical_block_key(self.kernel.translate(asid, page_va).pa)
        self.caches.flush_blocks(range(base_key, base_key + BLOCKS_PER_PAGE))

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One memory access: TLB hierarchy, walk on miss, physical caches."""
        self._accesses += 1
        front, pa = self.translate(core, asid, va)
        return self.physical_access(core, pa, is_write, front)
