"""OS-side segment management for many-segment translation (Section IV).

A *segment* maps a contiguous virtual range of one address space to a
contiguous physical range (base, limit, offset — the direct-segment /
RMM representation the paper extends).  The OS here supports:

* **eager allocation** — a memory request is backed immediately by
  contiguous physical extents (first-fit, splitting into several segments
  only when fragmentation forces it), maximizing contiguity at the cost of
  possible internal fragmentation.  Touched-page accounting exposes the
  utilization numbers of Table III;
* **adjacency merging** — a request that extends the previous allocation
  both virtually and physically grows the existing segment instead of
  creating a new one;
* **reservation-based allocation** (Section IV-B, [20]) — a large extent
  is reserved but sub-chunks are promoted to *allocated* only on first
  touch, with adjacent promoted chunks merging.  This trades more (but
  smaller) segments for less internal fragmentation;
* a **system-wide segment table** holding every live segment, mirrored by
  the HW segment table of ``repro.segtrans``.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.address import PAGE_SHIFT, PAGE_SIZE, align_up
from repro.common.stats import StatGroup
from repro.osmodel.frames import FrameAllocator, OutOfMemoryError


class SegmentFault(Exception):
    """Raised when an address is not covered by any live segment."""

    def __init__(self, asid: int, va: int) -> None:
        super().__init__(f"segment fault: asid={asid} va={va:#x}")
        self.asid = asid
        self.va = va


@dataclass
class Segment:
    """One variable-length virtual→physical mapping."""

    seg_id: int
    asid: int
    vbase: int
    length: int          # bytes
    pbase: int
    permissions: int = 0x3
    touched_pages: Set[int] = field(default_factory=set, repr=False)

    @property
    def vlimit(self) -> int:
        return self.vbase + self.length

    @property
    def offset(self) -> int:
        """The paper's offset register value: PA = VA + offset."""
        return self.pbase - self.vbase

    def contains(self, va: int) -> bool:
        return self.vbase <= va < self.vlimit

    def translate(self, va: int) -> int:
        if not self.contains(va):
            raise SegmentFault(self.asid, va)
        return va + self.offset

    def touch(self, va: int) -> None:
        """Record a page access for utilization accounting."""
        self.touched_pages.add((va - self.vbase) >> PAGE_SHIFT)

    def utilization(self) -> float:
        """Touched fraction of the eagerly allocated region."""
        total_pages = self.length >> PAGE_SHIFT
        if not total_pages:
            return 1.0
        return len(self.touched_pages) / total_pages


class OsSegmentTable:
    """System-wide in-memory segment table (the HW table mirrors it)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = StatGroup("os_segment_table")
        self._segments: Dict[int, Segment] = {}
        self._next_id = 0
        # Per-ASID sorted vbase lists for O(log n) containment lookup.
        self._by_asid: Dict[int, List[int]] = {}
        self._vbase_to_id: Dict[Tuple[int, int], int] = {}
        self.peak_live = 0
        self._generation = 0

    @property
    def generation(self) -> int:
        """Bumped on every mutation; consumers rebuild indexes lazily."""
        return self._generation

    def insert(self, asid: int, vbase: int, length: int, pbase: int,
               permissions: int = 0x3) -> Segment:
        """Register a new segment."""
        if len(self._segments) >= self.capacity:
            raise MemoryError(f"segment table full ({self.capacity} entries)")
        seg = Segment(self._next_id, asid, vbase, length, pbase, permissions)
        self._next_id += 1
        self._segments[seg.seg_id] = seg
        insort(self._by_asid.setdefault(asid, []), vbase)
        self._vbase_to_id[(asid, vbase)] = seg.seg_id
        self.peak_live = max(self.peak_live, len(self._segments))
        self.stats.add("inserts")
        self._generation += 1
        return seg

    def remove(self, seg_id: int) -> Segment:
        """Drop a segment (process exit / unmap)."""
        seg = self._segments.pop(seg_id)
        bases = self._by_asid[seg.asid]
        bases.remove(seg.vbase)
        del self._vbase_to_id[(seg.asid, seg.vbase)]
        self.stats.add("removes")
        self._generation += 1
        return seg

    def grow(self, seg_id: int, extra_bytes: int) -> Segment:
        """Extend a segment in place (adjacency merge)."""
        seg = self._segments[seg_id]
        seg.length += extra_bytes
        self.stats.add("grows")
        self._generation += 1
        return seg

    def get(self, seg_id: int) -> Segment:
        return self._segments[seg_id]

    def find(self, asid: int, va: int) -> Segment:
        """Containment lookup; raises :class:`SegmentFault` when uncovered."""
        bases = self._by_asid.get(asid)
        if bases:
            i = bisect_right(bases, va) - 1
            if i >= 0:
                seg = self._segments[self._vbase_to_id[(asid, bases[i])]]
                if seg.contains(va):
                    return seg
        raise SegmentFault(asid, va)

    def live_count(self) -> int:
        return len(self._segments)

    def segments_sorted(self) -> List[Segment]:
        """All segments ordered by (asid, vbase) — index-tree build order."""
        out: List[Segment] = []
        for asid in sorted(self._by_asid):
            for vbase in self._by_asid[asid]:
                out.append(self._segments[self._vbase_to_id[(asid, vbase)]])
        return out

    def split(self, seg_id: int, parts: int) -> List[Segment]:
        """Split one segment into ``parts`` translation-equivalent pieces.

        Used by the paper's index-cache stress study (Section IV-D),
        which artificially breaks each segment ~10 ways to model external
        fragmentation.  The pieces cover exactly the original range with
        the original offset, so translation results are unchanged.
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        original = self.get(seg_id)
        if parts == 1:
            return [original]
        pages = original.length >> PAGE_SHIFT
        if pages < parts:
            return [original]
        self.remove(seg_id)
        pieces: List[Segment] = []
        base_pages = pages // parts
        consumed = 0
        for i in range(parts):
            count = base_pages if i < parts - 1 else pages - consumed
            vbase = original.vbase + (consumed << PAGE_SHIFT)
            pieces.append(self.insert(
                original.asid, vbase, count << PAGE_SHIFT,
                vbase + original.offset, original.permissions))
            consumed += count
        self.stats.add("splits")
        return pieces

    def utilization(self, asid: Optional[int] = None) -> float:
        """Touched / allocated bytes over all (or one ASID's) segments."""
        segs = [s for s in self._segments.values()
                if asid is None or s.asid == asid]
        allocated = sum(s.length for s in segs)
        if not allocated:
            return 1.0
        touched = sum(len(s.touched_pages) << PAGE_SHIFT for s in segs)
        return touched / allocated


class SegmentAllocator:
    """Per-process eager/reservation segment allocation policy."""

    #: Sub-chunk promoted on first touch under reservation-based allocation.
    RESERVATION_CHUNK = 2 * 1024 * 1024

    def __init__(self, asid: int, table: OsSegmentTable, frames: FrameAllocator,
                 va_base: int = 0x10000000) -> None:
        self.asid = asid
        self.table = table
        self.frames = frames
        self.stats = StatGroup(f"segalloc_{asid}")
        #: The process's one heap cursor: every heap placement (a plain
        #: range, an eager allocation, a reservation) starts at or above
        #: it, so no two overlap.
        self._va_cursor = va_base
        self._last_segment: Optional[Segment] = None
        self._last_piece_end_frame: Optional[int] = None
        # Reservations: (vbase, length, pbase) with promoted chunk tracking.
        self._reservations: List[Tuple[int, int, int]] = []
        self._promoted: Dict[int, Segment] = {}  # chunk vbase -> segment

    # ------------------------------------------------------------------ #
    # Heap placement
    # ------------------------------------------------------------------ #

    def take_va(self, size_bytes: int) -> int:
        """Place ``size_bytes`` of heap VA with no backing; returns its
        base."""
        vbase = self._va_cursor
        self._va_cursor = vbase + size_bytes
        return vbase

    def skip_past(self, va: int) -> None:
        """Keep every later placement at or above ``va`` (a forked
        child's inherited ranges)."""
        self._va_cursor = max(self._va_cursor, va)

    # ------------------------------------------------------------------ #
    # Eager allocation
    # ------------------------------------------------------------------ #

    #: Set >1 (e.g. 512 for 2 MB) to align eager allocations so huge
    #: pages can back them (transparent-huge-page kernels).
    align_frames: int = 1

    def request_bytes(self, size_bytes: int) -> int:
        """The bytes :meth:`allocate` backs for a ``size_bytes`` request:
        whole pages, or whole 2 MB pages when allocations are aligned."""
        return align_up(size_bytes,
                        max(PAGE_SIZE, self.align_frames << PAGE_SHIFT))

    def allocate(self, size_bytes: int) -> Tuple[int, List[Segment]]:
        """Eagerly back ``size_bytes`` of fresh heap VA.

        Returns the base VA the request was placed at and the segments
        that now cover it (new, or the grown existing one when adjacency
        merging applied — that one also covers earlier requests).  An
        aligned request that no free extent fits aligned falls back to
        unaligned best-effort pieces; an alignment the frame allocator
        rejects raises its ``ValueError``.
        """
        size_bytes = self.request_bytes(size_bytes)
        frames_needed = size_bytes >> PAGE_SHIFT
        vbase = self._va_cursor
        if self.align_frames > 1:
            vbase = align_up(vbase, self.align_frames << PAGE_SHIFT)
            try:
                start = self.frames.alloc_contiguous(frames_needed,
                                                     self.align_frames)
                pieces = [(start, frames_needed)]
            except OutOfMemoryError:
                pieces = self.frames.alloc_best_effort(frames_needed)
        else:
            pieces = self.frames.alloc_best_effort(frames_needed)
        va = vbase
        result: List[Segment] = []
        for start_frame, count in pieces:
            piece_bytes = count << PAGE_SHIFT
            pbase = start_frame << PAGE_SHIFT
            merged = self._try_merge(va, piece_bytes, start_frame)
            if merged is not None:
                result.append(merged)
                self.stats.add("merges")
            else:
                seg = self.table.insert(self.asid, va, piece_bytes, pbase)
                self._last_segment = seg
                result.append(seg)
                self.stats.add("segments_created")
            self._last_piece_end_frame = start_frame + count
            va += piece_bytes
        self._va_cursor = va
        self.stats.add("bytes_allocated", size_bytes)
        return vbase, result

    def _try_merge(self, va: int, piece_bytes: int, start_frame: int) -> Optional[Segment]:
        """Grow the previous segment when VA and PA are both adjacent."""
        seg = self._last_segment
        if (seg is None or seg.vlimit != va
                or self._last_piece_end_frame != start_frame):
            return None
        return self.table.grow(seg.seg_id, piece_bytes)

    def forget(self, seg: Segment) -> None:
        """Invalidate merge state when ``seg`` is removed (munmap).

        Without this a later :meth:`allocate` could try to grow a segment
        that is no longer in the table (the frame allocator may hand back
        the adjacent frames after a free).
        """
        if self._last_segment is not None and self._last_segment is seg:
            self._last_segment = None
            self._last_piece_end_frame = None

    # ------------------------------------------------------------------ #
    # Reservation-based allocation (Section IV-B)
    # ------------------------------------------------------------------ #

    def reserve(self, size_bytes: int) -> Tuple[int, int]:
        """Reserve a contiguous region without creating segments yet.

        Returns ``(vbase, length)``.  Physical memory *is* set aside (the
        scheme's point is contiguity, not overcommit) but segments — and
        thus translation-structure pressure — appear only on first touch.
        """
        size_bytes = align_up(size_bytes, self.RESERVATION_CHUNK)
        start_frame = self.frames.alloc_contiguous(size_bytes >> PAGE_SHIFT)
        vbase = self.take_va(size_bytes)
        self._reservations.append((vbase, size_bytes, start_frame << PAGE_SHIFT))
        self.stats.add("reservations")
        return vbase, size_bytes

    def touch_reserved(self, va: int) -> Optional[Segment]:
        """Promote the 2 MB chunk containing ``va`` on first touch.

        Adjacent promoted chunks merge into one segment.  Returns the
        covering segment, or None when ``va`` is not inside a reservation.
        """
        for vbase, length, pbase in self._reservations:
            if vbase <= va < vbase + length:
                chunk = vbase + ((va - vbase) // self.RESERVATION_CHUNK) * self.RESERVATION_CHUNK
                if chunk in self._promoted:
                    return self._promoted[chunk]
                seg = self._promote_chunk(vbase, pbase, chunk)
                return seg
        return None

    def _promote_chunk(self, res_vbase: int, res_pbase: int, chunk: int) -> Segment:
        chunk_pbase = res_pbase + (chunk - res_vbase)
        left = self._promoted.get(chunk - self.RESERVATION_CHUNK)
        if left is not None and left.vlimit == chunk:
            seg = self.table.grow(left.seg_id, self.RESERVATION_CHUNK)
            self.stats.add("promotion_merges")
        else:
            seg = self.table.insert(self.asid, chunk, self.RESERVATION_CHUNK, chunk_pbase)
            self.stats.add("segments_created")
        self._promoted[chunk] = seg
        # A later chunk may have been promoted separately; merge forward.
        right = self._promoted.get(chunk + self.RESERVATION_CHUNK)
        if right is not None and right.seg_id != seg.seg_id and seg.vlimit == right.vbase:
            self.table.grow(seg.seg_id, right.length)
            self.table.remove(right.seg_id)
            for c, s in list(self._promoted.items()):
                if s.seg_id == right.seg_id:
                    self._promoted[c] = seg
            self.stats.add("promotion_merges")
        return seg
