"""Four-level radix page table (x86-64 style).

Table nodes are backed by real frames from the :class:`FrameAllocator`, so
every PTE has a concrete physical address.  That matters: the page walker
charges PTE reads through the cache hierarchy, and the paper's results
depend on walk traffic competing with data in the caches.

Each leaf PTE records the frame number, permission bits, and the *sharing
bit* the paper adds to page-table entries (Section III-A footnote): the
bit that tells a false-positive TLB fill that the page is in fact a
non-synonym.

The radix nodes are the source of truth.  Beside them the table indexes
its leaf-level nodes (the tables of 4 KB leaves) by ``vpn >> 9``, each
with the three PTE addresses a walk reads above it, so a lookup or a
walk of a 4 KB page is one dict probe instead of a four-level descent.
A node's frame never moves, so an entry stays valid until its node goes:
:meth:`PageTable.map` adds one when it creates a leaf-level node,
:meth:`PageTable.map_huge` drops the one whose empty node a 2 MB leaf
replaces, and :meth:`PageTable.release` clears them all.  Addresses with
no leaf-level node (2 MB leaves, unmapped upper levels) still descend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.address import PAGE_SHIFT, VA_MASK
from repro.osmodel.frames import FrameAllocator

LEVELS = 4
BITS_PER_LEVEL = 9
PTE_SIZE = 8

#: Right shifts that extract the slot index of each level above the 4 KB
#: leaves from a VPN, root first; a leaf's index is the VPN's low bits.
_UPPER_SHIFTS = tuple(BITS_PER_LEVEL * level for level in range(LEVELS - 1, 0, -1))
_INDEX_MASK = (1 << BITS_PER_LEVEL) - 1

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_RW = PERM_READ | PERM_WRITE


class PageFault(Exception):
    """Raised when translating an unmapped virtual address."""

    def __init__(self, va: int) -> None:
        super().__init__(f"page fault at {va:#x}")
        self.va = va


HUGE_PAGE_SHIFT = 21
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT


@dataclass(slots=True)
class PageTableEntry:
    """Leaf mapping: frame, permissions, and the synonym ("sharing") bit.

    ``page_shift`` distinguishes 4 KB leaves (12) from 2 MB huge-page
    leaves (21) installed one level up the radix.
    """

    pfn: int
    permissions: int = PERM_RW
    shared: bool = False
    page_shift: int = PAGE_SHIFT

    @property
    def is_huge(self) -> bool:
        return self.page_shift != PAGE_SHIFT


class _Node:
    """One radix node: a frame-backed array of 512 slots."""

    __slots__ = ("pa", "slots")

    def __init__(self, pa: int) -> None:
        self.pa = pa
        self.slots: Dict[int, object] = {}


#: One indexed leaf-level node: the PTE addresses a walk reads above it,
#: root first, and the node.
_Leaf = Tuple[Tuple[int, ...], _Node]


class PageTable:
    """Per-address-space 4-level radix table."""

    def __init__(self, frames: FrameAllocator) -> None:
        self._frames = frames
        self._node_frames: List[int] = []
        self._root = self._new_node()
        #: ``vpn >> 9`` -> the leaf-level node covering it (module docstring).
        self._leaves: Dict[int, _Leaf] = {}
        self._mapped_pages = 0
        self._released = False

    def _new_node(self) -> _Node:
        frame = self._frames.alloc_frame()
        self._node_frames.append(frame)
        return _Node(self._frames.frame_to_pa(frame))

    def release(self) -> int:
        """Free every radix-node frame (address-space teardown).

        Returns the number of frames released.  The table is unusable
        afterwards; releasing twice is a no-op.
        """
        if self._released:
            return 0
        for frame in self._node_frames:
            self._frames.free(frame, 1)
        released = len(self._node_frames)
        self._node_frames = []
        self._root = _Node(0)
        self._leaves.clear()
        self._mapped_pages = 0
        self._released = True
        return released

    def _descend(self, vpn: int, shifts: Tuple[int, ...]) -> _Node:
        """The node reached through the levels of ``shifts``, creating
        missing nodes on the way."""
        node = self._root
        for shift in shifts:
            index = (vpn >> shift) & _INDEX_MASK
            child = node.slots.get(index)
            if child is None:
                child = self._new_node()
                node.slots[index] = child
            node = child  # type: ignore[assignment]
        return node

    def _new_leaf(self, va: int, vpn: int) -> _Leaf:
        """Create and index the leaf-level node covering ``vpn``, creating
        missing nodes above it on the way."""
        upper = []
        node = self._root
        for shift in _UPPER_SHIFTS:
            index = (vpn >> shift) & _INDEX_MASK
            upper.append(node.pa + index * PTE_SIZE)
            child = node.slots.get(index)
            if child is None:
                child = self._new_node()
                node.slots[index] = child
            elif not isinstance(child, _Node):
                raise ValueError(f"4 KB mapping at {va:#x} inside a 2 MB leaf")
            node = child  # type: ignore[assignment]
        leaf = (tuple(upper), node)
        self._leaves[vpn >> BITS_PER_LEVEL] = leaf
        return leaf

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map(self, va: int, pfn: int, permissions: int = PERM_RW,
            shared: bool = False) -> None:
        """Install a leaf mapping for the page containing ``va``."""
        vpn = (va & VA_MASK) >> PAGE_SHIFT
        leaf = self._leaves.get(vpn >> BITS_PER_LEVEL)
        if leaf is None:
            leaf = self._new_leaf(va, vpn)
        slots = leaf[1].slots
        index = vpn & _INDEX_MASK
        if index not in slots:
            self._mapped_pages += 1
        slots[index] = PageTableEntry(pfn, permissions, shared)

    def map_huge(self, va: int, pfn: int, permissions: int = PERM_RW,
                 shared: bool = False) -> None:
        """Install a 2 MB leaf one level above the 4 KB leaves.

        ``va`` must be 2 MB-aligned and ``pfn`` the frame number of a
        2 MB-aligned physical region.
        """
        if va & (HUGE_PAGE_SIZE - 1):
            raise ValueError(f"huge mapping at unaligned VA {va:#x}")
        if (pfn << PAGE_SHIFT) & (HUGE_PAGE_SIZE - 1):
            raise ValueError("huge mapping needs a 2 MB-aligned frame")
        vpn = (va & VA_MASK) >> PAGE_SHIFT
        node = self._descend(vpn, _UPPER_SHIFTS[:-1])
        index = (vpn >> BITS_PER_LEVEL) & _INDEX_MASK
        existing = node.slots.get(index)
        if isinstance(existing, _Node) and existing.slots:
            raise ValueError(f"huge mapping at {va:#x} would shadow "
                             f"existing 4 KB mappings")
        if not isinstance(existing, PageTableEntry):
            self._mapped_pages += HUGE_PAGE_SIZE // (1 << PAGE_SHIFT)
        if isinstance(existing, _Node):
            # The 2 MB leaf replaces an empty leaf-level node.
            del self._leaves[vpn >> BITS_PER_LEVEL]
        node.slots[index] = PageTableEntry(pfn, permissions, shared,
                                           page_shift=HUGE_PAGE_SHIFT)

    def unmap(self, va: int) -> Optional[PageTableEntry]:
        """Remove the leaf mapping (4 KB or 2 MB); returns it or None."""
        vpn = (va & VA_MASK) >> PAGE_SHIFT
        node = self._root
        for shift in _UPPER_SHIFTS:
            index = (vpn >> shift) & _INDEX_MASK
            child = node.slots.get(index)
            if child is None:
                return None
            if isinstance(child, PageTableEntry):
                # Huge leaf encountered one level up.
                del node.slots[index]
                self._mapped_pages -= HUGE_PAGE_SIZE >> PAGE_SHIFT
                return child
            node = child  # type: ignore[assignment]
        entry = node.slots.pop(vpn & _INDEX_MASK, None)
        if entry is not None:
            self._mapped_pages -= 1
        return entry  # type: ignore[return-value]

    def set_permissions(self, va: int, permissions: int) -> None:
        """Rewrite a leaf's permission bits (CoW downgrades/promotions)."""
        self.entry(va).permissions = permissions

    def set_shared(self, va: int, shared: bool) -> None:
        """Flip the PTE sharing (synonym) bit."""
        self.entry(va).shared = shared

    # ------------------------------------------------------------------ #
    # Translation
    # ------------------------------------------------------------------ #

    def entry(self, va: int) -> PageTableEntry:
        """Return the leaf PTE (4 KB or 2 MB) or raise :class:`PageFault`."""
        vpn = (va & VA_MASK) >> PAGE_SHIFT
        leaf = self._leaves.get(vpn >> BITS_PER_LEVEL)
        if leaf is not None:
            entry = leaf[1].slots.get(vpn & _INDEX_MASK)
            if entry is None:
                raise PageFault(va)
            return entry  # type: ignore[return-value]
        # No leaf-level node: a 2 MB leaf or a fault, found by descending.
        node = self._root
        for shift in _UPPER_SHIFTS:
            child = node.slots.get((vpn >> shift) & _INDEX_MASK)
            if child is None:
                raise PageFault(va)
            if isinstance(child, PageTableEntry):
                return child  # huge leaf
            node = child  # type: ignore[assignment]
        entry = node.slots.get(vpn & _INDEX_MASK)
        if entry is None:
            raise PageFault(va)
        return entry  # type: ignore[return-value]

    def translate(self, va: int) -> int:
        """VA → PA for a mapped address (any leaf size)."""
        entry = self.entry(va)
        return (entry.pfn << PAGE_SHIFT) | (va & ((1 << entry.page_shift) - 1))

    def is_mapped(self, va: int) -> bool:
        try:
            self.entry(va)
            return True
        except PageFault:
            return False

    def walk(self, va: int) -> Tuple[List[int], Optional[PageTableEntry]]:
        """One hardware walk: the PTE addresses it reads, root→leaf, and
        the leaf it ends at (None when the walk faults).

        Unmapped upper levels still contribute the address that *would* be
        read (the walk discovers the fault by reading it).
        """
        vpn = (va & VA_MASK) >> PAGE_SHIFT
        leaf = self._leaves.get(vpn >> BITS_PER_LEVEL)
        if leaf is not None:
            upper, node = leaf
            index = vpn & _INDEX_MASK
            return ([*upper, node.pa + index * PTE_SIZE],
                    node.slots.get(index))  # type: ignore[return-value]
        # No leaf-level node: descend to the 2 MB leaf or the fault.
        path: List[int] = []
        node = self._root
        for shift in _UPPER_SHIFTS:
            index = (vpn >> shift) & _INDEX_MASK
            path.append(node.pa + index * PTE_SIZE)
            slot = node.slots.get(index)
            if not isinstance(slot, _Node):
                # A fault (None) or a 2 MB leaf ends the walk early.
                return path, slot  # type: ignore[return-value]
            node = slot
        index = vpn & _INDEX_MASK
        path.append(node.pa + index * PTE_SIZE)
        return path, node.slots.get(index)  # type: ignore[return-value]

    def walk_path(self, va: int) -> List[int]:
        """Physical addresses of the PTEs a hardware walk reads, root→leaf."""
        return self.walk(va)[0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    def iter_mappings(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield (va, entry) for every leaf mapping (OS bookkeeping)."""

        def recurse(node: _Node, prefix_vpn: int, level: int) -> Iterator[Tuple[int, PageTableEntry]]:
            for index, slot in node.slots.items():
                vpn = (prefix_vpn << BITS_PER_LEVEL) | index
                if isinstance(slot, _Node):
                    yield from recurse(slot, vpn, level + 1)
                else:
                    # Levels below this leaf contribute zero index bits.
                    shift = PAGE_SHIFT + BITS_PER_LEVEL * (LEVELS - 1 - level)
                    yield vpn << shift, slot  # type: ignore[misc]

        yield from recurse(self._root, 0, 0)
