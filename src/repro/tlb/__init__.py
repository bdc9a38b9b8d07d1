"""TLB structures: baseline hierarchy, synonym TLB, delayed TLB, walker."""

from repro.tlb.base import PERM_READ, PERM_RW, PERM_WRITE, SetAssociativeTlb, TlbEntry
from repro.tlb.delayed import DelayedTlb
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker

__all__ = [
    "PERM_READ",
    "PERM_RW",
    "PERM_WRITE",
    "SetAssociativeTlb",
    "TlbEntry",
    "DelayedTlb",
    "TlbHierarchy",
    "PageWalker",
]
