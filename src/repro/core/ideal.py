"""Ideal-TLB MMU: the paper's upper-bound configuration.

"The ideal TLB depicts the potential performance of a system without TLB
misses" (Section VI-B): translation is free and never misses; caches are
physically addressed as in the baseline.  Every other cost (cache misses,
DRAM) is identical, so the gap between baseline and ideal is exactly the
translation overhead the proposed schemes try to recover.
"""

from __future__ import annotations

from repro.common.address import physical_block_key
from repro.core.mmu_base import MmuBase, Outcome


class IdealMmu(MmuBase):
    """Zero-cost, never-missing translation."""

    name = "ideal"

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One memory access with free, never-missing translation."""
        self._accesses += 1
        pa = self.kernel.translate(asid, va).pa
        hit_level, cache_cycles, _ = self.caches.access(
            core, physical_block_key(pa), is_write)
        dram = self.memory_fill(pa, is_write) if hit_level == "memory" else 0
        return 0, cache_cycles, 0, dram, hit_level, pa
