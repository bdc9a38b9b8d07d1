"""The dual-granularity synonym filter (Section III-B, Figure 3).

One :class:`SynonymFilter` exists per address space.  It combines:

* a **coarse** 1K-bit Bloom filter over 16 MB regions, and
* a **fine** 1K-bit Bloom filter over 32 KB regions,

each probed by two partition/XOR-fold hash functions.  An address is
reported as a *synonym candidate* only when **all four** probed bits are
set.  The OS inserts a page into both filters when it makes the page's
mapping shared (a synonym); removals never clear bits (bits are shared by
construction), so the OS instead rebuilds a saturated filter from its own
authoritative list of shared pages.

Guarantee: every truly shared page queries as a candidate (no false
negatives).  False positives are harmless — the TLB resolves them with a
non-synonym marker entry (Section III-A) — but cost a TLB probe, so the
filter's job is to keep them rare.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.address import PAGE_SIZE, page_base
from repro.common.params import SynonymFilterConfig
from repro.common.stats import StatGroup
from repro.filters.bloom import BloomFilter
from repro.filters.hashing import make_hash_pair
from repro.obs.histogram import Histogram


class SynonymFilter:
    """Per-address-space synonym candidate detector."""

    def __init__(self, config: SynonymFilterConfig | None = None) -> None:
        self.config = config or SynonymFilterConfig()
        self.stats = StatGroup("synonym_filter")
        self._counts = self.stats.counts
        self.fine = BloomFilter(self.config.bits,
                                make_hash_pair(self.config.fine_grain_shift),
                                self.config.fine_grain_shift)
        self.coarse = BloomFilter(self.config.bits,
                                  make_hash_pair(self.config.coarse_grain_shift),
                                  self.config.coarse_grain_shift)
        # Occupancy (set-bit count of the fuller filter) sampled at every
        # OS-side insert — the saturation trajectory the rebuild policy
        # watches.  Inserts are rare (sharing transitions), so this is
        # off the per-access path.
        self.occupancy_hist = Histogram("synonym_filter_occupancy")

    # ------------------------------------------------------------------ #
    # OS-side maintenance
    # ------------------------------------------------------------------ #

    def mark_shared(self, va: int) -> None:
        """Record that the page containing ``va`` became a synonym page.

        Called by the OS on the private→shared transition; both filters are
        updated so the AND of the two granularities still covers the page.
        """
        va = page_base(va)
        self.fine.insert(va)
        self.coarse.insert(va)
        self.stats.add("pages_marked")
        self.occupancy_hist.record(max(self.fine.popcount(),
                                       self.coarse.popcount()))

    def mark_shared_range(self, va_start: int, length: int) -> None:
        """Mark every page of ``[va_start, va_start + length)`` as shared.

        Leaves the same bits, insert counts and occupancy samples as
        :meth:`mark_shared` on each page, but adds ``pages_marked`` once.
        Every page of one fine grain (and so of one coarse grain) sets the
        same bits, so each run of pages inside a fine grain is inserted
        once and its occupancy recorded once per page.
        """
        fine, coarse = self.fine, self.coarse
        record_repeated = self.occupancy_hist.record_repeated
        grain = 1 << min(self.config.fine_grain_shift,
                         self.config.coarse_grain_shift)
        va = page_base(va_start)
        end = va_start + length
        pages = 0
        while va < end:
            run_end = min(end, (va | (grain - 1)) + 1)
            run = (run_end - va + PAGE_SIZE - 1) // PAGE_SIZE
            fine.insert(va, run)
            coarse.insert(va, run)
            record_repeated(max(fine.popcount(), coarse.popcount()), run)
            pages += run
            va += run * PAGE_SIZE
        if pages:
            self.stats.add("pages_marked", pages)

    def rebuild(self, shared_pages: Iterable[int]) -> None:
        """Reconstruct both filters from the OS's list of shared pages.

        The paper lets the OS rebuild a filter when unshare churn has
        inflated the false-positive rate past a threshold; shared→private
        transitions never clear bits in place.
        """
        self.fine.clear()
        self.coarse.clear()
        for va in shared_pages:
            self.mark_shared(va)
        self.stats.add("rebuilds")

    # ------------------------------------------------------------------ #
    # Core-side lookup
    # ------------------------------------------------------------------ #

    def is_synonym_candidate(self, va: int) -> bool:
        """Probe both filters; candidate iff all four probed bits are set."""
        counts = self._counts
        counts["lookups"] += 1
        candidate = self.coarse.query(va) and self.fine.query(va)
        if candidate:
            counts["candidates"] += 1
        return candidate

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def fill_ratio(self) -> float:
        """Worst of the two filters' fill ratios (saturation signal)."""
        return max(self.fine.fill_ratio(), self.coarse.fill_ratio())

    def state_bits(self) -> tuple[int, int]:
        """Raw (fine, coarse) bit vectors — saved/restored on context switch."""
        return self.fine.dump_bits(), self.coarse.dump_bits()

    def load_state_bits(self, fine_bits: int, coarse_bits: int) -> None:
        """Install raw bit vectors (the per-core on-chip filter copy load)."""
        self.fine.load_bits(fine_bits)
        self.coarse.load_bits(coarse_bits)
        self.stats.add("context_loads")
