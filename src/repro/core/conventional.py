"""Physically addressed baseline MMU (the paper's comparison point).

Translation sits on the critical core-to-L1 path: every access probes the
L1 TLB (overlapped with L1 indexing, VIPT-style, so a hit exposes no extra
cycles), an L1-TLB miss exposes the 7-cycle L2 TLB, and a full TLB miss
blocks the access for a hardware page walk whose PTE reads travel through
the cache hierarchy.  All cache levels are physically tagged, so nothing
proceeds until the translation resolves.

:class:`PagedMmu` is that paged front end on its own: the per-core TLB
hierarchies, walkers and TLB-miss walks and the shootdown listener.  The
baseline and the prior schemes that keep paging beside their ranges
(:mod:`repro.core.prior`) build on it.
"""

from __future__ import annotations

from functools import partial

from repro.common.address import (
    BLOCKS_PER_PAGE,
    physical_block_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig
from repro.core.mmu_base import MmuBase, Outcome
from repro.osmodel.kernel import Kernel
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker


class PagedMmu(MmuBase):
    """Per-core two-level TLBs and page walkers before physical caches.

    Registers each core's ``tlb_core{c}`` and ``walker_core{c}`` stat
    groups and a shootdown listener that invalidates every core's TLBs.
    ``miss_walks[c]`` is what core ``c``'s TLBs call on a miss.
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
        self.miss_walks = [walker.walk for walker in self.walkers]
        for tlb, walker in zip(self.tlbs, self.walkers):
            self.stats.register(tlb.stats)
            self.stats.register(walker.stats)
        kernel.on_shootdown(self._shootdown)

    def _shootdown(self, asid: int, page_va: int) -> None:
        key = virtual_page_key(asid, page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)


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
        front, pa = self.tlbs[core].translate(
            virtual_page_key(asid, va), self.miss_walks[core], asid, va)
        return self.physical_access(core, pa, is_write, front)
