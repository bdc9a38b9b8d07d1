"""Two-level TLB hierarchy used by the physically-addressed baseline.

Models the Haswell-like configuration of Table IV: a 64-entry 4-way L1 TLB
(1 cycle) backed by a 1024-entry 8-way L2 TLB (7 cycles).  A lookup probes
L1, then L2; an L2 hit refills L1.  On a miss, :meth:`TlbHierarchy.translate`
calls the walk it is given and fills both levels.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.address import PAGE_MASK, PAGE_SHIFT
from repro.common.params import TlbConfig
from repro.common.stats import StatGroup
from repro.tlb.base import SetAssociativeTlb, TlbEntry, WalkFn


class TlbHierarchy:
    """L1 + L2 TLBs with L2-hit refill into L1.

    The hierarchy counts into the stat group ``name``; its levels into
    ``<name>_l1`` and ``<name>_l2``.
    """

    def __init__(self, l1_config: TlbConfig, l2_config: TlbConfig,
                 name: str = "tlb") -> None:
        self.stats = StatGroup(name)
        self._counts = self.stats.counts
        self.l1 = SetAssociativeTlb(l1_config, f"{name}_l1")
        self.l2 = SetAssociativeTlb(l2_config, f"{name}_l2")

    def lookup(self, page_key: int) -> Tuple[Optional[TlbEntry], str]:
        """Probe L1 then L2; returns ``(entry, level)``.

        ``level`` is ``"l1"``, ``"l2"`` or ``"miss"`` (entry ``None``).
        """
        counts = self._counts
        counts["lookups"] += 1
        entry = self.l1.lookup(page_key)
        if entry is not None:
            counts["l1_hits"] += 1
            return entry, "l1"
        entry = self.l2.lookup(page_key)
        if entry is not None:
            counts["l2_hits"] += 1
            self.l1.fill(entry)
            return entry, "l2"
        counts["misses"] += 1
        return None, "miss"

    def translate(self, page_key: int, walk: WalkFn, asid: int,
                  va: int) -> Tuple[int, int]:
        """Probe L1 then L2; on a miss, walk and fill both levels.  Returns
        ``(front_cycles, pa)``: 0 on an L1 hit (it overlaps the L1 cache
        access), the L2 latency on an L2 hit, plus the walk on a miss."""
        entry, level = self.lookup(page_key)
        if entry is None:
            cycles, pa, permissions = walk(asid, va)[:3]
            self.fill(TlbEntry(page_key, pa >> PAGE_SHIFT, True, permissions))
            return self.l2.latency + cycles, pa
        front = self.l2.latency if level == "l2" else 0
        return front, (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK)

    def fill(self, entry: TlbEntry) -> None:
        """Install a walked translation into both levels."""
        self.l2.fill(entry)
        self.l1.fill(entry)

    def invalidate(self, page_key: int) -> None:
        """Shootdown one page from both levels."""
        self.l1.invalidate(page_key)
        self.l2.invalidate(page_key)

    def accesses(self) -> int:
        """Total L1-TLB probes — the energy-relevant access count."""
        return self.l1.stats["lookups"]

    def misses(self) -> int:
        """Hierarchy misses (both levels missed → page walk)."""
        return self.stats["misses"]
