"""Three-level cache hierarchy: private L1/L2 per core, shared inclusive LLC.

All levels store blocks under packed namespace keys, so one hierarchy
serves the physically addressed baseline (keys are always physical) and
the hybrid design (ASID+VA keys for non-synonyms, PA keys for synonyms)
without change — precisely the paper's point that a block has one name.

Coherence follows from the single-name property: a directory of private
copies keyed by block name invalidates remote copies on writes.  The LLC
is inclusive; its evictions back-invalidate inner copies so the OS's
per-page flushes only have to visit the hierarchy once.

The access path allocates nothing: lines are packed ints (see
:mod:`repro.cache.line`), the directory maps a block to an int bitmask of
holder cores, and every access returns one of five shared results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cache.line import (
    CacheLine,
    DIRTY,
    EXCLUSIVE,
    MODIFIED,
    PERM_MASK,
    PERM_RW,
    PERM_SHIFT,
    SHARED,
)
from repro.cache.setassoc import SetAssociativeCache
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.obs.events import STAGE_CACHE
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True, slots=True)
class CacheAccessResult:
    """Outcome of one hierarchy access (shared: never mutate one)."""

    hit_level: str          # "l1" | "l2" | "llc" | "memory"
    latency: int            # cycles spent in the cache levels probed
    llc_miss: bool          # True when the request must go to memory
    writeback: bool = False  # a dirty LLC victim went to memory


class CacheHierarchy:
    """Per-core L1/L2 + shared inclusive LLC with copy-set coherence."""

    def __init__(self, config: SystemConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self.stats = stats or StatGroup("cache_hierarchy")
        self._counts = self.stats.counts
        self.l1: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1, f"l1_core{c}") for c in range(config.cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l2, f"l2_core{c}") for c in range(config.cores)
        ]
        self.llc = SetAssociativeCache(config.llc, "llc")
        self.llc.on_eviction(self._back_invalidate)
        # Directory of private-cache copies: block key -> bitmask of the
        # cores holding it (bit c for core c).
        self._copies: Dict[int, int] = {}
        self._cores = range(config.cores)
        # Every access ends in one of these; latencies depend only on
        # the geometry.
        l1 = config.l1.latency
        l2 = l1 + config.l2.latency
        llc = l2 + config.llc.latency
        self._l1_hit = CacheAccessResult("l1", l1, llc_miss=False)
        self._l2_hit = CacheAccessResult("l2", l2, llc_miss=False)
        self._llc_hit = CacheAccessResult("llc", llc, llc_miss=False)
        self._memory_fill = CacheAccessResult("memory", llc, llc_miss=True)
        self._memory_writeback = CacheAccessResult("memory", llc, llc_miss=True,
                                                   writeback=True)
        # Installed by MmuBase.attach_tracer; the null tracer never records.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ #
    # Coherence plumbing
    # ------------------------------------------------------------------ #

    def _back_invalidate(self, key: int, _meta: int) -> None:
        """Inclusive LLC eviction: purge every inner copy of the victim."""
        holders = self._copies.pop(key, 0)
        if not holders:
            return
        for core in self._cores:
            if holders >> core & 1:
                self.l1[core].invalidate(key)
                self.l2[core].invalidate(key)
        self._counts["back_invalidations"] += holders.bit_count()

    def _invalidate_remote_copies(self, key: int, writer: int) -> None:
        """Write by ``writer``: invalidate all other cores' private copies."""
        holders = self._copies.get(key)
        if not holders:
            return
        remote = holders & ~(1 << writer)
        if not remote:
            return
        for core in self._cores:
            if remote >> core & 1:
                self.l1[core].invalidate(key)
                self.l2[core].invalidate(key)
        self._copies[key] = holders ^ remote
        self._counts["coherence_invalidations"] += remote.bit_count()

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, key: int, is_write: bool,
               permissions: int = PERM_RW) -> CacheAccessResult:
        """Look up a block through L1 → L2 → LLC, filling on the way back.

        ``permissions`` are the page permissions installed on a memory
        fill.  For non-synonym lines the delayed translation supplies the
        real ones afterwards (:meth:`install_permissions`, Section III-A).
        Permission *checking* is the caller's job via
        :meth:`closest_permissions`, because the fault semantics differ
        per MMU.
        """
        result = self._access(core, key, is_write, permissions)
        if self.tracer.recording:
            self.tracer.stage(STAGE_CACHE, cycles=result.latency,
                              hit_level=result.hit_level, write=is_write)
        return result

    def _access(self, core: int, key: int, is_write: bool,
                permissions: int) -> CacheAccessResult:
        counts = self._counts
        counts["accesses"] += 1

        l1 = self.l1[core]
        meta = l1.lookup(key, is_write)
        if meta is not None:
            if is_write:
                if meta < MODIFIED:
                    l1.mark_modified(key)
                self._invalidate_remote_copies(key, core)
            return self._l1_hit

        # The private copies a miss installs: Modified for a write.
        state = MODIFIED if is_write else SHARED
        l2 = self.l2[core]
        meta = l2.lookup(key, is_write)
        if meta is not None:
            l1.fill(key, meta & (DIRTY | PERM_MASK) | state)
            result = self._l2_hit
        else:
            meta = self.llc.lookup(key, is_write)
            if meta is not None:
                perms = meta & PERM_MASK
                result = self._llc_hit
            else:
                # Memory fill: install in all levels (inclusive).
                counts["llc_misses"] += 1
                perms = permissions << PERM_SHIFT
                victim = self.llc.fill(key, EXCLUSIVE | perms | is_write)
                if victim is not None and victim & DIRTY:
                    counts["memory_writebacks"] += 1
                    result = self._memory_writeback
                else:
                    result = self._memory_fill
            l2.fill(key, perms | state)
            l1.fill(key, perms | state | is_write)
        if is_write:
            self._invalidate_remote_copies(key, core)
        copies = self._copies
        copies[key] = copies.get(key, 0) | 1 << core
        return result

    def _closest(self, core: int, key: int) -> Optional[int]:
        """Packed metadata of the closest resident copy of a block."""
        meta = self.l1[core].peek(key)
        if meta is None:
            meta = self.l2[core].peek(key)
            if meta is None:
                meta = self.llc.peek(key)
        return meta

    def probe_line(self, core: int, key: int) -> Optional[CacheLine]:
        """Snapshot of the closest resident copy of a block, without side
        effects."""
        meta = self._closest(core, key)
        return None if meta is None else CacheLine.unpack(key, meta)

    def closest_permissions(self, core: int, key: int) -> Optional[int]:
        """Permission bits of the closest resident copy of a block."""
        meta = self._closest(core, key)
        return None if meta is None else (meta & PERM_MASK) >> PERM_SHIFT

    def install_permissions(self, core: int, key: int, permissions: int) -> None:
        """Fill-time permission delivery (Section III-A): give every
        resident copy on ``core``'s path — L1, L2 and LLC — the delayed
        translation's permissions."""
        self.l1[core].set_permissions(key, permissions)
        self.l2[core].set_permissions(key, permissions)
        self.llc.set_permissions(key, permissions)

    # ------------------------------------------------------------------ #
    # OS-directed maintenance
    # ------------------------------------------------------------------ #

    def flush_blocks(self, keys: Iterable[int]) -> int:
        """Invalidate blocks everywhere (page remap / deallocation /
        synonym-status change, Section III-A).  Returns lines dropped."""
        dropped = 0
        for key in keys:
            holders = self._copies.pop(key, 0)
            for core in self._cores:
                if holders >> core & 1:
                    if self.l1[core].invalidate(key) is not None:
                        dropped += 1
                    if self.l2[core].invalidate(key) is not None:
                        dropped += 1
            if self.llc.invalidate(key) is not None:
                dropped += 1
        self._counts["page_flush_lines"] += dropped
        return dropped

    def downgrade_blocks(self, keys: Iterable[int], permissions: int) -> int:
        """Rewrite permissions on resident copies (r/o sharing, Section III-D)."""
        changed = 0
        for key in keys:
            holders = self._copies.get(key, 0)
            for core in self._cores:
                if holders >> core & 1:
                    self.l1[core].update_permissions(key, permissions)
                    self.l2[core].update_permissions(key, permissions)
            if self.llc.update_permissions(key, permissions):
                changed += 1
        return changed

    def total_latency_floor(self) -> int:
        """L1+L2+LLC probe latency — the cycles an LLC miss has already paid."""
        return self.l1[0].latency + self.l2[0].latency + self.llc.latency

