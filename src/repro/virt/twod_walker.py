"""Two-dimensional (nested) page walker with translation caches.

A full x86-style nested walk reads every guest level (whose PTEs live at
guest-physical addresses and therefore each need a host walk of their
own) plus the host walk of the final guest-physical page:
``4 × (4 + 1) + 4 = 24`` memory reads in the worst case.

The baseline the paper compares against is "a state-of-the-art
translation cache for two-dimensional address translation", modeled here
as the standard pair:

* a **nested TLB** caching gPA→MA page translations, which absorbs the
  host walks of guest-PTE addresses and of the leaf;
* a **2-D page-walk cache** over the upper guest levels, collapsing a
  hit walk to the guest leaf PTE only.

PTE reads are charged through the data-cache hierarchy at machine
addresses via the injected ``charge`` callback, as in the native walker,
and a walk answers in the native walker's order plus its read count:
``(cycles, ma, permissions, shared, reads)``, so either walker's ``walk``
can fill any TLB (:mod:`repro.tlb`).  ``shared`` is the guest's bit or the
hypervisor's (:meth:`repro.virt.hypervisor.VirtualMachine.host_synonym`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.common.address import PAGE_MASK, PAGE_SHIFT, page_base
from repro.common.params import WalkerConfig
from repro.common.stats import StatGroup
from repro.tlb.walker import WalkCache, probe_walk_cache
from repro.virt.hypervisor import VirtualMachine

ChargeFn = Callable[[int], int]


class NestedTlb:
    """Small gPA→MA TLB used by the walker (not by data accesses)."""

    #: Fully associative LRU entries.
    ENTRIES = 64

    def __init__(self) -> None:
        self.stats = StatGroup("nested_tlb")
        self._counts = self.stats.counts
        self._map: Dict[int, int] = {}

    def lookup(self, gpa_page: int):
        """Probe the nested TLB; returns the MA page or None."""
        counts = self._counts
        counts["lookups"] += 1
        ma_page = self._map.get(gpa_page)
        if ma_page is None:
            counts["misses"] += 1
            return None
        del self._map[gpa_page]
        self._map[gpa_page] = ma_page
        counts["hits"] += 1
        return ma_page

    def fill(self, gpa_page: int, ma_page: int) -> None:
        if gpa_page in self._map:
            del self._map[gpa_page]
        elif len(self._map) >= self.ENTRIES:
            del self._map[next(iter(self._map))]
        self._map[gpa_page] = ma_page

    def flush(self) -> None:
        self._map.clear()


class TwoDWalker:
    """Nested walker with nested TLB + 2-D walk cache.

    The guest walk cache holds ``config.walk_cache_entries`` 2 MB regions
    under the native walker's policy
    (:func:`~repro.tlb.walker.probe_walk_cache`).
    """

    def __init__(self, vm: VirtualMachine, config: WalkerConfig,
                 charge: ChargeFn) -> None:
        self.vm = vm
        self.config = config
        self.charge = charge
        self.stats = StatGroup("twod_walker")
        self._counts = self.stats.counts
        self.nested_tlb = NestedTlb()
        self._walk_cache: WalkCache = {}

    # ------------------------------------------------------------------ #
    # gPA → MA with the nested TLB absorbing host walks
    # ------------------------------------------------------------------ #

    def _host_resolve(self, gpa: int) -> tuple[int, int, int]:
        """Return (ma, cycles, reads) for translating one gPA."""
        page = page_base(gpa)
        ma_page = self.nested_tlb.lookup(page >> PAGE_SHIFT)
        if ma_page is not None:
            return (ma_page << PAGE_SHIFT) | (gpa & PAGE_MASK), 1, 0
        path, ma = self.vm.host_walk_path(gpa)
        cycles = 0
        for pte_ma in path:
            cycles += self.charge(pte_ma) + self.config.per_level_overhead
        self.nested_tlb.fill(page >> PAGE_SHIFT, ma >> PAGE_SHIFT)
        return ma, cycles, len(path)

    # ------------------------------------------------------------------ #
    # The nested walk
    # ------------------------------------------------------------------ #

    def walk(self, guest_asid: int, gva: int) -> Tuple[int, int, int, bool, int]:
        """Perform one 2-D walk, charging every PTE read.

        Returns ``(cycles, ma, permissions, shared, reads)``.
        """
        counts = self._counts
        counts["walks"] += 1
        cycles = 0
        reads = 0

        guest_pte_gpas, gpa, guest_permissions, guest_shared = (
            self.vm.guest_kernel.pte_path(guest_asid, gva))
        if probe_walk_cache(self._walk_cache, self.config.walk_cache_entries,
                            guest_asid, gva):
            guest_pte_gpas = guest_pte_gpas[-1:]
            counts["walk_cache_hits"] += 1

        # Each guest PTE lives at a gPA that itself needs host translation.
        for pte_gpa in guest_pte_gpas:
            pte_ma, host_cycles, host_reads = self._host_resolve(pte_gpa)
            cycles += host_cycles
            reads += host_reads
            cycles += self.charge(pte_ma) + self.config.per_level_overhead
            reads += 1

        # Finally translate the leaf gPA.
        ma, host_cycles, host_reads = self._host_resolve(gpa)
        cycles += host_cycles
        reads += host_reads

        host_entry = self.vm.host_page_table.entry(page_base(gpa))
        permissions = guest_permissions & host_entry.permissions
        counts["memory_reads"] += reads
        counts["walk_cycles"] += cycles
        return (cycles, ma, permissions,
                guest_shared or self.vm.host_synonym(gpa), reads)
