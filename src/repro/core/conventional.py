"""Physically addressed baseline MMU (the paper's comparison point).

Translation sits on the critical core-to-L1 path: every access probes the
L1 TLB (overlapped with L1 indexing, VIPT-style, so a hit exposes no extra
cycles), an L1-TLB miss exposes the 7-cycle L2 TLB, and a full TLB miss
blocks the access for a hardware page walk whose PTE reads travel through
the cache hierarchy.  All cache levels are physically tagged, so nothing
proceeds until the translation resolves.
"""

from __future__ import annotations

from functools import partial

from repro.common.address import physical_block_key, virtual_page_key
from repro.common.params import SystemConfig
from repro.core.mmu_base import MmuBase, Outcome
from repro.osmodel.kernel import Kernel
from repro.tlb.base import TlbEntry
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker


class ConventionalMmu(MmuBase):
    """Baseline: per-core two-level TLBs before physically addressed caches."""

    name = "baseline"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
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
        for c in range(cfg.cores):
            self.stats.register(self.tlbs[c].stats)
            self.stats.register(self.tlbs[c].l1.stats)
            self.stats.register(self.tlbs[c].l2.stats)
            self.stats.register(self.walkers[c].stats)
        kernel.on_shootdown(self._shootdown)
        kernel.on_page_flush(self._flush_page)

    # ------------------------------------------------------------------ #
    # OS callbacks
    # ------------------------------------------------------------------ #

    def _shootdown(self, asid: int, page_va: int) -> None:
        key = virtual_page_key(asid, page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        # Physical caches: flush the page's physical blocks.
        base_key = physical_block_key(self.kernel.translate(asid, page_va).pa)
        self.caches.flush_blocks(base_key + i for i in range(64))

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One memory access: TLB hierarchy, walk on miss, physical caches."""
        self._accesses += 1
        page_key = virtual_page_key(asid, va)
        tlb = self.tlbs[core]
        entry, level = tlb.lookup(page_key)
        front = 0
        if level == "l2":
            front = self.config.l2_tlb.latency
        elif entry is None:
            cycles, walked_pa, permissions, _ = self.walkers[core].walk(asid, va)
            front = self.config.l2_tlb.latency + cycles
            entry = TlbEntry(page_key, walked_pa >> 12, True, permissions)
            tlb.fill(entry)

        pa = (entry.pfn << 12) | (va & 0xFFF)
        hit_level, cache_cycles, _ = self.caches.access(
            core, physical_block_key(pa), is_write)
        dram = self.memory_fill(pa, is_write) if hit_level == "memory" else 0
        return front, cache_cycles, 0, dram, hit_level, pa
