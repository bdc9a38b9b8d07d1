"""Generic set-associative, write-back, LRU cache over packed block keys.

Indexing uses the low bits of the block key, which are the block-address
bits of either namespace — so non-synonym lines are indexed by virtual
address and synonym lines by physical address, as the hybrid design
requires.  The ASID/namespace bits live in the upper key bits and act as
tag extensions, matching the paper's Figure 2 layout.

Each set maps a block key to the line's packed metadata (see
:mod:`repro.cache.line`), so the access path works on small ints only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cache.line import (
    CacheLine,
    DIRTY,
    MODIFIED,
    PERM_MASK,
    PERM_RW,
    PERM_SHIFT,
    STATE_EXCLUSIVE,
    pack_line,
)
from repro.common.params import CacheConfig
from repro.common.stats import StatGroup

#: Called with the ``(key, packed metadata)`` of every evicted line.
EvictionCallback = Callable[[int, int], None]


class SetAssociativeCache:
    """One cache level.  Sets are insertion-ordered dicts (LRU order);
    the counters are the stat group ``name``."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = StatGroup(name)
        self._counts = self.stats.counts
        sets = config.sets             # a power of two (CacheConfig checks)
        self._sets: List[Dict[int, int]] = [{} for _ in range(sets)]
        self._set_mask = sets - 1
        self._ways = config.ways
        self._eviction_callback: Optional[EvictionCallback] = None
        self.latency = config.latency

    def on_eviction(self, callback: EvictionCallback) -> None:
        """Register a callback invoked with every evicted line.

        The hierarchy uses this for inclusive back-invalidation (LLC
        evictions purge inner copies) and for dirty write-back routing.
        """
        self._eviction_callback = callback

    def lookup(self, key: int, is_write: bool = False) -> Optional[int]:
        """Probe for a block; on hit, refresh LRU and set dirty for writes.

        Returns the line's packed metadata after the access, or None.
        """
        counts = self._counts
        counts["lookups"] += 1
        cache_set = self._sets[key & self._set_mask]
        meta = cache_set.pop(key, None)
        if meta is None:
            counts["misses"] += 1
            return None
        if is_write:
            meta |= DIRTY
        cache_set[key] = meta
        counts["hits"] += 1
        return meta

    def peek(self, key: int) -> Optional[int]:
        """A resident block's packed metadata, without side effects."""
        return self._sets[key & self._set_mask].get(key)

    def probe(self, key: int) -> Optional[CacheLine]:
        """Snapshot of a resident block, without LRU or counter effects."""
        meta = self.peek(key)
        return None if meta is None else CacheLine.unpack(key, meta)

    def fill(self, key: int, meta: int) -> Optional[int]:
        """Install a line, evicting LRU if the set is full.

        Returns the victim's packed metadata (after the eviction callback
        has seen it), or None.
        """
        counts = self._counts
        cache_set = self._sets[key & self._set_mask]
        victim = None
        if key in cache_set:
            del cache_set[key]
        elif len(cache_set) >= self._ways:
            victim_key = next(iter(cache_set))
            victim = cache_set.pop(victim_key)
            counts["evictions"] += 1
            if victim & DIRTY:
                counts["writebacks"] += 1
            if self._eviction_callback is not None:
                self._eviction_callback(victim_key, victim)
        cache_set[key] = meta
        counts["fills"] += 1
        return victim

    def insert(self, key: int, dirty: bool = False, permissions: int = PERM_RW,
               state: int = STATE_EXCLUSIVE) -> Optional[CacheLine]:
        """Convenience fill from raw fields; returns the victim's snapshot."""
        oldest = next(iter(self._sets[key & self._set_mask]), None)
        victim = self.fill(key, pack_line(dirty, permissions, state))
        return None if victim is None else CacheLine.unpack(oldest, victim)

    def invalidate(self, key: int) -> Optional[int]:
        """Remove one block (coherence invalidation / page flush).

        Returns the removed line's packed metadata, or None.
        """
        meta = self._sets[key & self._set_mask].pop(key, None)
        if meta is not None:
            self._counts["invalidations"] += 1
        return meta

    def set_permissions(self, key: int, permissions: int) -> bool:
        """Rewrite a resident line's permission bits, keeping its LRU
        position; True if the block was resident."""
        cache_set = self._sets[key & self._set_mask]
        meta = cache_set.get(key)
        if meta is None:
            return False
        cache_set[key] = meta & ~PERM_MASK | permissions << PERM_SHIFT
        return True

    def update_permissions(self, key: int, permissions: int) -> bool:
        """OS-directed permission change (Section III-D downgrades):
        :meth:`set_permissions`, counted."""
        if not self.set_permissions(key, permissions):
            return False
        self._counts["permission_updates"] += 1
        return True

    def mark_modified(self, key: int) -> None:
        """Move a resident line to the Modified state (a write upgrade)."""
        cache_set = self._sets[key & self._set_mask]
        cache_set[key] |= MODIFIED

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_keys(self) -> List[int]:
        """All resident block keys (test/inspection helper)."""
        return [key for cache_set in self._sets for key in cache_set]

    def __contains__(self, key: int) -> bool:
        return self.peek(key) is not None
