"""Index cache: a small physical cache of index-tree nodes (Section IV-C).

The index tree lives in memory; reading 4 levels of it per LLC miss would
be ruinous, so a dedicated cache of 64-byte tree nodes — "a regular cache
of 64 byte blocks addressed by physical address" — absorbs the traversal.
Default geometry is 32 KB, 8-way, 3 cycles (CACTI at 3.4 GHz); Figure 7
sweeps ``SegmentTranslationConfig.index_cache_size`` from 128 B to 64 KB.

One index cache is shared by all cores (the paper notes a multi-core
processor needs only one).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.setassoc import SetAssociativeCache
from repro.common.params import SegmentTranslationConfig
from repro.common.stats import StatGroup

#: Cost (cycles) of fetching one tree node from memory on an index-cache
#: miss; the caller can substitute a DRAM-model charge.
ChargeFn = Callable[[int], int]


class IndexCache:
    """Physically addressed node cache with miss-fill from memory.

    Its geometry is ``config.index_cache_geometry()``: the config's
    ``index_cache_size`` in ``index_cache_ways`` ways.
    """

    def __init__(self, config: SegmentTranslationConfig | None = None,
                 memory_charge: Optional[ChargeFn] = None) -> None:
        self.config = config or SegmentTranslationConfig()
        self._cache = SetAssociativeCache(
            self.config.index_cache_geometry(), "index_cache")
        self.stats = StatGroup("index_cache")
        self._counts = self.stats.counts
        self._memory_charge = memory_charge or (lambda pa: 200)

    @property
    def latency(self) -> int:
        return self.config.index_cache_latency

    @property
    def size_bytes(self) -> int:
        return self._cache.config.size_bytes

    def read_node(self, node_pa: int) -> int:
        """Read one tree node; returns cycles (hit latency or miss+fill)."""
        key = node_pa >> 6
        counts = self._counts
        counts["reads"] += 1
        if self._cache.lookup(key) is not None:
            counts["hits"] += 1
            return self.latency
        counts["misses"] += 1
        cycles = self.latency + self._memory_charge(node_pa)
        self._cache.insert(key)
        return cycles

    def flush(self) -> None:
        """Drop all nodes (index-tree rebuild moves the tree in memory)."""
        for key in self._cache.resident_keys():
            self._cache.invalidate(key)
        self.stats.add("flushes")

    def hit_rate(self) -> float:
        return self.stats.hit_rate()

    def occupancy(self) -> int:
        return self._cache.occupancy()
