"""Three-level cache hierarchy: private L1/L2 per core, shared inclusive LLC.

All levels store blocks under packed namespace keys, so one hierarchy
serves the physically addressed baseline (keys are always physical) and
the hybrid design (ASID+VA keys for non-synonyms, PA keys for synonyms)
without change — precisely the paper's point that a block has one name.

Coherence follows from the single-name property: a directory of private
copies keyed by block name invalidates remote copies on writes.  The LLC
is inclusive; its evictions back-invalidate inner copies so the OS's
per-page flushes only have to visit the hierarchy once.

The access path allocates no object beyond its result tuple: lines are
packed ints (see :mod:`repro.cache.line`), the directory maps a block to
an int bitmask of holder cores, and :meth:`CacheHierarchy.access` probes
the levels' set dicts itself, one probe per level it reaches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

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


#: What :meth:`CacheHierarchy.access` returns: (hit_level, cycles,
#: line_permissions).
CacheAccess = Tuple[str, int, int]


class CacheHierarchy:
    """Per-core L1/L2 + shared inclusive LLC with copy-set coherence."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = StatGroup("cache_hierarchy")
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
        # The cycles of an access served by each level (an LLC miss has
        # paid every probe); they depend only on the geometry.
        self._l1_cycles = config.l1.latency
        self._l2_cycles = self._l1_cycles + config.l2.latency
        self._llc_cycles = self._l2_cycles + config.llc.latency
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
               permissions: int = PERM_RW) -> CacheAccess:
        """Look up a block through L1 → L2 → LLC, filling on the way back.

        Returns ``(hit_level, cycles, line_permissions)``: the level that
        served the block (``"memory"`` on an LLC miss), the probe cycles
        down to it, and the permission bits of the copy now in ``core``'s
        L1 — what :meth:`closest_permissions` reads right after any
        access.  ``permissions`` are the page permissions installed on a
        memory fill.  For non-synonym lines the delayed translation
        supplies the real ones afterwards (:meth:`install_permissions`,
        Section III-A).  Permission *checking* is the caller's job,
        because the fault semantics differ per MMU.

        Each level is probed in place: its steps are exactly
        :meth:`SetAssociativeCache.lookup` (pop, then reinsert a hit as
        most recently used) and, on the way back,
        :meth:`SetAssociativeCache.fill` (evict the set's oldest line
        when it is full), bumping the same counters in the same order.
        Only the LLC has an eviction callback (:meth:`_back_invalidate`).
        """
        counts = self._counts
        counts["accesses"] += 1
        l1 = self.l1[core]
        l1_counts = l1._counts
        l1_counts["lookups"] += 1
        l1_set = l1._sets[key & l1._set_mask]
        meta = l1_set.pop(key, None)
        if meta is not None:
            l1_counts["hits"] += 1
            if is_write:
                # A write hit dirties the line and upgrades it to Modified.
                l1_set[key] = meta | DIRTY | MODIFIED
                self._invalidate_remote_copies(key, core)
            else:
                l1_set[key] = meta
            level = "l1"
            cycles = self._l1_cycles
        else:
            l1_counts["misses"] += 1
            # The private copies a miss installs: Modified for a write.
            state = MODIFIED if is_write else SHARED
            l2 = self.l2[core]
            l2_counts = l2._counts
            l2_counts["lookups"] += 1
            l2_set = l2._sets[key & l2._set_mask]
            meta = l2_set.pop(key, None)
            if meta is not None:
                if is_write:
                    meta |= DIRTY
                l2_set[key] = meta
                l2_counts["hits"] += 1
                level = "l2"
                cycles = self._l2_cycles
                meta = meta & (DIRTY | PERM_MASK) | state
            else:
                l2_counts["misses"] += 1
                llc = self.llc
                llc_counts = llc._counts
                llc_counts["lookups"] += 1
                llc_set = llc._sets[key & llc._set_mask]
                meta = llc_set.pop(key, None)
                if meta is not None:
                    if is_write:
                        meta |= DIRTY
                    llc_set[key] = meta
                    llc_counts["hits"] += 1
                    level = "llc"
                    perms = meta & PERM_MASK
                else:
                    # Memory fill: install in all levels (inclusive).
                    llc_counts["misses"] += 1
                    counts["llc_misses"] += 1
                    level = "memory"
                    perms = permissions << PERM_SHIFT
                    if len(llc_set) >= llc._ways:
                        victim_key = next(iter(llc_set))
                        victim = llc_set.pop(victim_key)
                        llc_counts["evictions"] += 1
                        self._back_invalidate(victim_key, victim)
                        if victim & DIRTY:
                            llc_counts["writebacks"] += 1
                            counts["memory_writebacks"] += 1
                    llc_set[key] = EXCLUSIVE | perms | is_write
                    llc_counts["fills"] += 1
                cycles = self._llc_cycles
                if len(l2_set) >= l2._ways:
                    l2_counts["evictions"] += 1
                    if l2_set.pop(next(iter(l2_set))) & DIRTY:
                        l2_counts["writebacks"] += 1
                l2_set[key] = perms | state
                l2_counts["fills"] += 1
                meta = perms | state | is_write
            if len(l1_set) >= l1._ways:
                l1_counts["evictions"] += 1
                if l1_set.pop(next(iter(l1_set))) & DIRTY:
                    l1_counts["writebacks"] += 1
            l1_set[key] = meta
            l1_counts["fills"] += 1
            if is_write:
                self._invalidate_remote_copies(key, core)
            copies = self._copies
            copies[key] = copies.get(key, 0) | 1 << core
        if self.tracer.recording:
            self.tracer.stage(STAGE_CACHE, cycles=cycles, hit_level=level,
                              write=is_write)
        return level, cycles, (meta & PERM_MASK) >> PERM_SHIFT

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
        translation's permissions, keeping each copy's LRU position."""
        bits = permissions << PERM_SHIFT
        l1 = self.l1[core]
        cache_set = l1._sets[key & l1._set_mask]
        meta = cache_set.get(key)
        if meta is not None:
            cache_set[key] = meta & ~PERM_MASK | bits
        l2 = self.l2[core]
        cache_set = l2._sets[key & l2._set_mask]
        meta = cache_set.get(key)
        if meta is not None:
            cache_set[key] = meta & ~PERM_MASK | bits
        llc = self.llc
        cache_set = llc._sets[key & llc._set_mask]
        meta = cache_set.get(key)
        if meta is not None:
            cache_set[key] = meta & ~PERM_MASK | bits

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

