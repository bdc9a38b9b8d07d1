"""Hardware page-walker cost model.

A native x86-64 walk reads one PTE per radix level (4 levels).  Real
walkers keep a small *page-walk cache* of upper-level entries so most
walks skip straight to the leaf level; we model a walk cache over the
L3-level (2 MB-region) entry, which collapses a hit walk to a single leaf
PTE read.

The walker is decoupled from both the page table (a ``resolve`` callable
that performs the radix walk once, returning the PTE physical addresses
it touches and what its leaf yields) and the memory system (a
``charge`` callable that returns the cycles for one PTE read, letting the
simulator route PTE reads through the cache hierarchy — this is what lets
large on-chip caches absorb walk traffic, a first-order effect in the
paper's Figure 9).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.common.params import WalkerConfig
from repro.common.stats import StatGroup
from repro.obs.histogram import Histogram

# Resolve callback: (asid, va) -> (PTE physical addresses ordered root ->
# leaf, pa, permissions, shared) of the leaf; see ``Kernel.pte_path``.
ResolveFn = Callable[[int, int], Tuple[Sequence[int], int, int, bool]]
# Charge callback: (pte_physical_address) -> cycles for the read.
ChargeFn = Callable[[int], int]

#: A page-walk cache: ``(asid, va >> 21) -> True``, oldest entry first.
WalkCache = Dict[Tuple[int, int], bool]


def probe_walk_cache(cache: WalkCache, capacity: int, asid: int,
                     va: int) -> bool:
    """Look up the walk-cache entry of ``va``'s 2 MB region; True on a hit.

    A hit moves the entry to the back of the LRU order; a miss inserts
    it there, first evicting the oldest entry when ``capacity`` are
    held.  The native and the 2-D walker share this cache policy.
    """
    key = (asid, va >> 21)
    hit = cache.pop(key, False)
    if not hit and len(cache) >= capacity:
        del cache[next(iter(cache))]
    cache[key] = True
    return hit


class PageWalker:
    """Radix-walk cost model with an upper-level page-walk cache.

    Its counters are the stat group ``name`` and its per-walk latency
    histogram is ``<name>_cycles``, so an MMU's several walkers stay
    distinguishable.  The walk cache holds ``config.walk_cache_entries``.
    """

    def __init__(self, config: WalkerConfig, resolve: ResolveFn, charge: ChargeFn,
                 name: str = "page_walker") -> None:
        self.config = config
        self.resolve = resolve
        self.charge = charge
        self.stats = StatGroup(name)
        self._counts = self.stats.counts
        self.cycles_hist = Histogram(f"{name}_cycles")
        self._walk_cache: WalkCache = {}

    def walk(self, asid: int, va: int) -> Tuple[int, int, int, bool]:
        """Walk the page table for (asid, va), charging each PTE read.

        Returns ``(cycles, pa, permissions, shared)``.  A walk-cache hit
        reads only the leaf PTE; a miss reads every level and refills the
        walk cache.  The ``pte_reads`` and ``walk_cache_hits`` counters
        record what each walk read.
        """
        counts = self._counts
        counts["walks"] += 1
        pte_addresses, pa, permissions, shared = self.resolve(asid, va)
        if probe_walk_cache(self._walk_cache, self.config.walk_cache_entries,
                            asid, va):
            counts["walk_cache_hits"] += 1
            touched = pte_addresses[-1:]
        else:
            touched = pte_addresses
        cycles = self.config.per_level_overhead * len(touched)
        for pte_pa in touched:
            cycles += self.charge(pte_pa)
        counts["pte_reads"] += len(touched)
        counts["walk_cycles"] += cycles
        self.cycles_hist.record(cycles)
        return cycles, pa, permissions, shared
