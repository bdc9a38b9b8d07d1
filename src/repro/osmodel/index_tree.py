"""OS-maintained B-tree index over the segment table (Section IV-C).

The index tree maps an incoming ``ASID+VA`` to the segment-ID of the
covering segment.  Nodes are 64-byte cache blocks holding up to six keys
and seven values (child pointers in internal nodes, segment-IDs in
leaves), laid out at real physical addresses so the hardware walker's node
reads can hit or miss the **index cache** like any other physical access.

Keys are packed ``(asid << 48) | vbase``.  Lookup descends by
``rightmost child whose separator <= query`` and finishes in a leaf with
the rightmost key ≤ query — the candidate segment whose base precedes the
address.  Containment (``va < base + limit``) is checked by the caller
against the segment table, as in the hardware flow of Figure 5.

The tree is bulk-loaded from the sorted segment list.  Real B-trees run
partially full (classic random-insert fill is ~ln 2 ≈ 69 %); we bulk-load
at 4 of 6 keys per leaf, which reproduces the paper's footprint behaviour
(a 2048-segment tree overflows a 32 KB index cache at ~41 KB while a
1024-segment tree fits at ~21 KB — Figure 7(b)).  At this fill a
2048-segment tree is depth 5 rather than the paper's near-full-node
depth 4; the walker charges actual node reads, so the full-walk latency
comes out at ~22 cycles instead of the paper's 19–20.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.address import PAGE_SHIFT, VA_BITS, align_up
from repro.osmodel.frames import FrameAllocator
from repro.osmodel.segments import OsSegmentTable, Segment

NODE_BYTES = 64
MAX_KEYS = 6
MAX_CHILDREN = 7


def pack_key(asid: int, va: int) -> int:
    """Pack (ASID, VA) into the tree's comparison key."""
    return (asid << VA_BITS) | (va & ((1 << VA_BITS) - 1))


@dataclass(slots=True)
class TreeNode:
    """One 64 B node: sorted keys plus children (internal) or values (leaf)."""

    pa: int
    keys: List[int]
    children: Optional[List["TreeNode"]]  # None for leaves
    values: Optional[List[int]]           # seg-IDs, leaves only

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(slots=True)
class IndexLookup:
    """Result of a tree traversal."""

    seg_id: Optional[int]      # None: address precedes every segment
    node_addresses: List[int]  # physical addresses read, root → leaf
    depth: int


class IndexTree:
    """Bulk-loaded B+-tree over segments with physically placed nodes."""

    #: Bulk-load fill: keys per leaf (of ``MAX_KEYS``) and children per
    #: internal node (of ``MAX_CHILDREN``); see the module docstring.
    LEAF_FILL = 4
    INTERNAL_FILL = 5

    def __init__(self, frames: FrameAllocator) -> None:
        self._frames = frames
        self.root: Optional[TreeNode] = None
        self.depth = 0
        self.node_count = 0
        self._extent: Optional[Tuple[int, int]] = None  # (start_frame, frames)
        self._built_generation = -1

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    def build(self, table: OsSegmentTable) -> None:
        """(Re)construct the tree from the segment table's current contents."""
        segments = table.segments_sorted()
        self._release_extent()
        if not segments:
            self.root = None
            self.depth = 0
            self.node_count = 0
            self._built_generation = table.generation
            return

        leaves = self._build_leaves(segments)
        levels: List[List[TreeNode]] = [leaves]
        while len(levels[-1]) > 1:
            levels.append(self._build_internal(levels[-1]))
        nodes = [node for level in levels for node in level]
        self._place_nodes(nodes)
        self.root = levels[-1][0]
        self.depth = len(levels)
        self.node_count = len(nodes)
        self._built_generation = table.generation

    def ensure_current(self, table: OsSegmentTable) -> bool:
        """Rebuild if the segment table changed; True when a rebuild ran."""
        if self._built_generation != table.generation:
            self.build(table)
            return True
        return False

    def _build_leaves(self, segments: Sequence[Segment]) -> List[TreeNode]:
        leaves: List[TreeNode] = []
        for i in range(0, len(segments), self.LEAF_FILL):
            batch = segments[i:i + self.LEAF_FILL]
            leaves.append(TreeNode(
                pa=0,
                keys=[pack_key(s.asid, s.vbase) for s in batch],
                children=None,
                values=[s.seg_id for s in batch],
            ))
        return leaves

    def _build_internal(self, children: List[TreeNode]) -> List[TreeNode]:
        parents: List[TreeNode] = []
        for i in range(0, len(children), self.INTERNAL_FILL):
            group = children[i:i + self.INTERNAL_FILL]
            # Separators: the smallest key reachable under each non-first child.
            seps = [self._leftmost_key(child) for child in group[1:]]
            parents.append(TreeNode(pa=0, keys=seps, children=group, values=None))
        return parents

    @staticmethod
    def _leftmost_key(node: TreeNode) -> int:
        while node.children is not None:
            node = node.children[0]
        return node.keys[0]

    def _place_nodes(self, nodes: List[TreeNode]) -> None:
        """Assign each node a physical address inside a fresh extent."""
        total_bytes = align_up(len(nodes) * NODE_BYTES, 1 << PAGE_SHIFT)
        frames = total_bytes >> PAGE_SHIFT
        start_frame = self._frames.alloc_contiguous(frames)
        self._extent = (start_frame, frames)
        base_pa = start_frame << PAGE_SHIFT
        for i, node in enumerate(nodes):
            node.pa = base_pa + i * NODE_BYTES

    def _release_extent(self) -> None:
        if self._extent is not None:
            start, count = self._extent
            self._frames.free(start, count)
            self._extent = None

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, asid: int, va: int) -> IndexLookup:
        """Traverse root→leaf; returns the candidate seg-ID and node reads."""
        if self.root is None:
            return IndexLookup(None, [], 0)
        query = pack_key(asid, va)
        node = self.root
        path = [node.pa]
        while not node.is_leaf:
            assert node.children is not None
            child_index = bisect_right(node.keys, query)
            node = node.children[child_index]
            path.append(node.pa)
        assert node.values is not None
        key_index = bisect_right(node.keys, query) - 1
        if key_index < 0:
            # The address precedes this leaf's keys; with bulk-loaded
            # separators this only happens left of the whole key space.
            return IndexLookup(None, path, len(path))
        return IndexLookup(node.values[key_index], path, len(path))

    def footprint_bytes(self) -> int:
        """Total tree size — what the index cache must hold for 100 % hits."""
        return self.node_count * NODE_BYTES
