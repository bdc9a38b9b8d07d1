"""Ideal-TLB MMU: the paper's upper-bound configuration.

"The ideal TLB depicts the potential performance of a system without TLB
misses" (Section VI-B): translation is free and never misses; caches are
physically addressed as in the baseline.  Every other cost (cache misses,
DRAM) is identical, so the gap between baseline and ideal is exactly the
translation overhead the proposed schemes try to recover.
"""

from __future__ import annotations

from repro.core.mmu_base import MmuBase, Outcome


class IdealMmu(MmuBase):
    """Zero-cost, never-missing translation."""

    name = "ideal"

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        """One memory access with free, never-missing translation."""
        self._accesses += 1
        return self.physical_access(
            core, self.kernel.translate(asid, va).pa, is_write, 0)
