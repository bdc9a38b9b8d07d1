"""Many-segment delayed translation: the full Figure 5 flow.

On an LLC miss, the incoming ASID+VA:

1. probes the **segment cache** (2 MB granularity) — a hit completes the
   translation in 2 cycles;
2. on a miss, the HW walker traverses the OS's **index tree** through the
   **index cache** (≤ 4 node reads, 3 cycles each when they hit);
3. the resulting segment-ID indexes the **HW segment table** (7 cycles);
4. the address is checked against the segment's ASID, base and limit and
   translated with the offset; the segment cache is refilled.  The tree
   returns the predecessor key, which can be another address space's
   segment, so the ASID check is what keeps one process from using
   another's translation.

The paper budgets ~20 cycles for the full walk (4 index-cache hits + the
segment table); that emerges here from the component latencies rather
than being hard-coded, and degrades naturally when index-cache misses
reach memory.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.common.params import SegmentTranslationConfig
from repro.common.stats import StatGroup
from repro.obs.histogram import Histogram
from repro.osmodel.kernel import Kernel
from repro.osmodel.segments import SegmentFault
from repro.segtrans.index_cache import IndexCache
from repro.segtrans.segment_cache import SegmentCache
from repro.segtrans.segment_table import HwSegmentTable


class ManySegmentTranslator:
    """Shared (per-chip) delayed translation engine.

    The segment cache, index cache and HW segment table take their
    sizes and latencies from ``config``.
    """

    def __init__(self, kernel: Kernel,
                 config: SegmentTranslationConfig | None = None,
                 memory_charge: Optional[Callable[[int], int]] = None,
                 use_segment_cache: bool = True) -> None:
        self.config = config or SegmentTranslationConfig()
        self.kernel = kernel
        self.stats = StatGroup("many_segment")
        self._counts = self.stats.counts
        self.segment_cache = SegmentCache(self.config) if use_segment_cache else None
        self.index_cache = IndexCache(self.config, memory_charge)
        self.hw_table = HwSegmentTable(kernel.segment_table, self.config)
        self._tree_generation = -1
        # Distributions over the translation path: index-tree nodes read
        # per full walk (the paper's ≤4-node argument) and end-to-end
        # translation latency including SC hits.
        self.depth_hist = Histogram("segment_walk_depth")
        self.latency_hist = Histogram("segment_translation_cycles")

    def _refresh_tree(self):
        tree = self.kernel.current_index_tree()
        if self.kernel.segment_table.generation != self._tree_generation:
            # The OS moved/rebuilt the tree; stale node blocks are useless.
            self.index_cache.flush()
            if self.segment_cache is not None:
                self.segment_cache.flush()
            self.hw_table.flush()
            self._tree_generation = self.kernel.segment_table.generation
        return tree

    def translate(self, asid: int, va: int) -> Tuple[int, int, int, bool, int]:
        """Translate an LLC-missing ASID+VA to PA (Figure 5).

        Returns ``(pa, cycles, permissions, sc_hit, index_nodes_read)``;
        raises :class:`SegmentFault` when no segment covers the address.
        """
        counts = self._counts
        counts["translations"] += 1
        cycles = 0
        if self.segment_cache is not None:
            cycles += self.segment_cache.latency
            pa = self.segment_cache.lookup(asid, va)
            if pa is not None:
                counts["sc_hits"] += 1
                self.latency_hist.record(cycles)
                return pa, cycles, 0x3, True, 0

        tree = self._refresh_tree()
        lookup = tree.lookup(asid, va)
        nodes_read = len(lookup.node_addresses)
        for node_pa in lookup.node_addresses:
            cycles += self.index_cache.read_node(node_pa)
        counts["index_nodes_read"] += nodes_read

        segment = None
        if lookup.seg_id is not None:
            segment, table_cycles = self.hw_table.read(lookup.seg_id)
            cycles += table_cycles
        if segment is None or segment.asid != asid or not segment.contains(va):
            # Not covered: raise to the OS (cold allocation, stale tree).
            counts["segment_faults"] += 1
            raise SegmentFault(asid, va)

        pa = va + segment.offset
        if self.segment_cache is not None:
            self.segment_cache.fill(asid, va, segment.vbase, segment.vlimit,
                                    segment.offset)
        counts["full_walks"] += 1
        self.depth_hist.record(nodes_read)
        self.latency_hist.record(cycles)
        return pa, cycles, segment.permissions, False, nodes_read

    def sc_hit_rate(self) -> float:
        if self.segment_cache is None:
            return 0.0
        return self.segment_cache.hit_rate()

    def index_cache_hit_rate(self) -> float:
        return self.index_cache.hit_rate()
