"""Delayed TLB: page-granularity translation behind the LLC (Section IV-A).

The delayed TLB is a single large set-associative TLB consulted only on
LLC misses for non-synonym blocks.  Because it is off the core-to-L1
critical path its capacity can grow far past conventional L2 TLBs — the
paper sweeps 1K to 64K entries (Figure 4) — and it is *shared* by all
cores, so its entries are keyed by ASID + VPN.

This class wraps :class:`SetAssociativeTlb` with the one probe → walk →
fill step every delayed-TLB design shares (:meth:`DelayedTlb.translate`:
the native and the 2-D hybrid engines and Enigma's intermediate-address
TLB, each with its own walk), the miss bookkeeping the experiments need
(MPKI accounting against instruction counts happens in the harness) and
the shootdown interface the OS directs at the shared delayed structure
when a non-synonym mapping changes (Section III-A).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.address import PAGE_MASK, PAGE_SHIFT
from repro.common.params import TlbConfig
from repro.tlb.base import SetAssociativeTlb, TlbEntry, WalkFn


class DelayedTlb:
    """Shared post-LLC translation TLB with fixed (page) granularity.

    Its counters are the inner TLB's stat group, ``delayed_tlb``.
    """

    def __init__(self, config: TlbConfig) -> None:
        self._tlb = SetAssociativeTlb(config, "delayed_tlb")
        self.stats = self._tlb.stats
        self.latency = config.latency

    def translate(self, page_key: int, walk: WalkFn, asid: int,
                  va: int) -> Tuple[int, int, int, bool]:
        """Translate an LLC-missing access: probe, walk on a miss, fill.

        ``walk(asid, va)`` answers a miss; the walked page is filled
        under ``page_key``.  Returns ``(pa, cycles, permissions, hit)``:
        ``cycles`` is the probe latency plus any walk.
        """
        entry = self.lookup(page_key)
        if entry is not None:
            return ((entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK), self.latency,
                    entry.permissions, True)
        cycles, pa, permissions = walk(asid, va)[:3]
        self._tlb.fill(TlbEntry(page_key, pa >> PAGE_SHIFT, True, permissions))
        return pa, self.latency + cycles, permissions, False

    def lookup(self, page_key: int) -> Optional[TlbEntry]:
        """Probe on an LLC miss; None means a page walk is required."""
        return self._tlb.lookup(page_key)

    def fill(self, entry: TlbEntry) -> None:
        """Install a walked translation."""
        self._tlb.fill(entry)

    def shootdown(self, page_key: int) -> None:
        """OS-directed invalidation of one page mapping."""
        self._tlb.invalidate(page_key)

    def accesses(self) -> int:
        return self.stats["lookups"]

    def misses(self) -> int:
        return self.stats["misses"]

    def hit_rate(self) -> float:
        return self.stats.hit_rate()
