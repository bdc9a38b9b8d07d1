"""MMU front-ends: the paper's contribution and its comparison points.

The prior schemes (:mod:`repro.core.prior`, :mod:`repro.core.thp`) are
imported by module path, so ``import repro`` does not load them.
"""

from repro.core.conventional import ConventionalMmu
from repro.core.hybrid import (
    DelayedTlbEngine,
    HybridMmu,
    ManySegmentEngine,
)
from repro.core.ideal import IdealMmu
from repro.core.mmu_base import AccessOutcome, MmuBase

__all__ = [
    "ConventionalMmu",
    "DelayedTlbEngine",
    "HybridMmu",
    "ManySegmentEngine",
    "IdealMmu",
    "AccessOutcome",
    "MmuBase",
]
