"""Generic set-associative, write-back, LRU cache over packed block keys.

Indexing uses the low bits of the block key, which are the block-address
bits of either namespace — so non-synonym lines are indexed by virtual
address and synonym lines by physical address, as the hybrid design
requires.  The ASID/namespace bits live in the upper key bits and act as
tag extensions, matching the paper's Figure 2 layout.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.cache.line import CacheLine, PERM_RW, STATE_EXCLUSIVE
from repro.common.params import CacheConfig
from repro.common.stats import StatGroup

EvictionCallback = Callable[[CacheLine], None]


class SetAssociativeCache:
    """One cache level.  Sets are insertion-ordered dicts (LRU order)."""

    def __init__(self, config: CacheConfig, name: str = "cache",
                 stats: StatGroup | None = None) -> None:
        self.config = config
        self.name = name
        self.stats = stats or StatGroup(name)
        sets = config.sets
        if sets & (sets - 1):
            raise ValueError(f"{name}: set count {sets} must be a power of two")
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(sets)]
        self._set_mask = sets - 1
        self._eviction_callback: Optional[EvictionCallback] = None
        self.latency = config.latency

    def on_eviction(self, callback: EvictionCallback) -> None:
        """Register a callback invoked with every evicted line.

        The hierarchy uses this for inclusive back-invalidation (LLC
        evictions purge inner copies) and for dirty write-back routing.
        """
        self._eviction_callback = callback

    def lookup(self, key: int, is_write: bool = False) -> Optional[CacheLine]:
        """Probe for a block; on hit, refresh LRU and set dirty for writes."""
        self.stats.add("lookups")
        cache_set = self._sets[key & self._set_mask]
        line = cache_set.get(key)
        if line is None:
            self.stats.add("misses")
            return None
        del cache_set[key]
        cache_set[key] = line
        if is_write:
            line.dirty = True
        self.stats.add("hits")
        return line

    def probe(self, key: int) -> Optional[CacheLine]:
        """Residence check without LRU or counter side effects."""
        return self._sets[key & self._set_mask].get(key)

    def fill(self, line: CacheLine) -> Optional[CacheLine]:
        """Install a line, evicting LRU if the set is full.

        Returns the victim (after the eviction callback has seen it).
        """
        cache_set = self._sets[line.key & self._set_mask]
        victim = None
        if line.key in cache_set:
            del cache_set[line.key]
        elif len(cache_set) >= self.config.ways:
            oldest_key = next(iter(cache_set))
            victim = cache_set.pop(oldest_key)
            self.stats.add("evictions")
            if victim.dirty:
                self.stats.add("writebacks")
            if self._eviction_callback is not None:
                self._eviction_callback(victim)
        cache_set[line.key] = line
        self.stats.add("fills")
        return victim

    def insert(self, key: int, dirty: bool = False, permissions: int = PERM_RW,
               state: str = STATE_EXCLUSIVE) -> Optional[CacheLine]:
        """Convenience fill from raw fields."""
        return self.fill(CacheLine(key=key, dirty=dirty, permissions=permissions,
                                   state=state))

    def invalidate(self, key: int) -> Optional[CacheLine]:
        """Remove one block (coherence invalidation / page flush)."""
        line = self._sets[key & self._set_mask].pop(key, None)
        if line is not None:
            self.stats.add("invalidations")
        return line

    def invalidate_many(self, keys: Iterable[int]) -> int:
        """Remove several blocks; returns how many were resident."""
        return sum(1 for key in keys if self.invalidate(key) is not None)

    def update_permissions(self, key: int, permissions: int) -> bool:
        """Rewrite a resident line's permission bits (Section III-D downgrades)."""
        line = self.probe(key)
        if line is None:
            return False
        line.permissions = permissions
        self.stats.add("permission_updates")
        return True

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_keys(self) -> List[int]:
        """All resident block keys (test/inspection helper)."""
        return [key for cache_set in self._sets for key in cache_set]

    def __contains__(self, key: int) -> bool:
        return self.probe(key) is not None
