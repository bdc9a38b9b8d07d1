"""Generic set-associative, LRU-replaced TLB.

All TLB flavours in the paper — the baseline two-level hierarchy, the
64-entry synonym TLB, and the large delayed TLB behind the LLC — are
instances of this structure with different geometry.  Entries are keyed by
a packed ``ASID + VPN`` integer (see :func:`repro.common.address.
virtual_page_key`) so homonyms are disambiguated exactly as the paper's
ASID-extended tags do.

Each TLB kind owns one probe → walk → fill step, which MMUs call with
their page walk; :meth:`SetAssociativeTlb.translate` is the synonym TLB's.
Entries carry the translation *and* the page's synonym status: a
false-positive probe from the synonym filter installs a **non-synonym
marker entry** (``is_synonym=False``) that short-circuits future false
positives for the page (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.address import PAGE_SHIFT
from repro.common.params import TlbConfig
from repro.common.stats import StatGroup

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_RW = PERM_READ | PERM_WRITE

#: A page walk: ``(asid, va) -> (cycles, pa, permissions, shared, ...)``.
WalkFn = Callable[[int, int], tuple]


@dataclass(slots=True)
class TlbEntry:
    """One cached translation (or non-synonym marker)."""

    page_key: int          # packed ASID + VPN
    pfn: int               # physical frame number (valid when is_synonym)
    is_synonym: bool       # True: translate to PA; False: marker entry
    permissions: int = PERM_RW


class SetAssociativeTlb:
    """A single TLB level with true-LRU replacement.

    Each set is an insertion-ordered dict mapping page keys to entries;
    hits re-insert the key so the dict order is the LRU order (oldest
    first).  ``sets == 1`` models a fully-associative structure.  Its
    counters are the stat group ``name``.
    """

    def __init__(self, config: TlbConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.stats = StatGroup(name)
        self._counts = self.stats.counts
        self._sets: list[Dict[int, TlbEntry]] = [{} for _ in range(config.sets)]
        self._set_mask = config.sets - 1   # a power of two (TlbConfig checks)
        self.latency = config.latency

    def lookup(self, page_key: int) -> Optional[TlbEntry]:
        """Probe the TLB; returns the entry on hit (refreshing LRU) or None."""
        counts = self._counts
        counts["lookups"] += 1
        tlb_set = self._sets[page_key & self._set_mask]
        entry = tlb_set.pop(page_key, None)
        if entry is None:
            counts["misses"] += 1
            return None
        # Refresh LRU position: re-insert at the back.
        tlb_set[page_key] = entry
        counts["hits"] += 1
        return entry

    def translate(self, page_key: int, walk: WalkFn, asid: int,
                  va: int) -> Tuple[TlbEntry, int, bool]:
        """Probe; on a miss, walk and fill with the walk's ``shared`` bit
        as the synonym status (a marker entry when it is false).  Returns
        ``(entry, cycles, hit)``: the probe latency plus any walk."""
        entry = self.lookup(page_key)
        if entry is not None:
            return entry, self.latency, True
        cycles, pa, permissions, shared = walk(asid, va)[:4]
        entry = TlbEntry(page_key, pa >> PAGE_SHIFT, shared, permissions)
        self.fill(entry)
        return entry, self.latency + cycles, False

    def probe(self, page_key: int) -> Optional[TlbEntry]:
        """Check residence without touching LRU state or counters."""
        return self._sets[page_key & self._set_mask].get(page_key)

    def fill(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Insert an entry, returning the victim it evicted (if any)."""
        counts = self._counts
        tlb_set = self._sets[entry.page_key & self._set_mask]
        victim = None
        if entry.page_key in tlb_set:
            del tlb_set[entry.page_key]
        elif len(tlb_set) >= self.config.ways:
            oldest_key = next(iter(tlb_set))
            victim = tlb_set.pop(oldest_key)
            counts["evictions"] += 1
        tlb_set[entry.page_key] = entry
        counts["fills"] += 1
        return victim

    def invalidate(self, page_key: int) -> bool:
        """Drop one translation (TLB-shootdown target); True if present."""
        tlb_set = self._sets[page_key & self._set_mask]
        if page_key in tlb_set:
            del tlb_set[page_key]
            self.stats.add("invalidations")
            return True
        return False

    def occupancy(self) -> int:
        """Number of resident entries."""
        return sum(len(s) for s in self._sets)

    def __contains__(self, page_key: int) -> bool:
        return self.probe(page_key) is not None
