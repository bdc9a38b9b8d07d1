"""Physical-frame allocator with contiguous (extent) allocation.

Segment-based translation lives or dies by the OS's ability to hand out
*contiguous* physical memory (Section IV-B), so the allocator works in
extents: free space is a sorted list of ``[start_frame, end_frame)``
ranges, allocation is first-fit, and frees coalesce with neighbours.

Fragmentation can be injected deliberately (``fragment``) to reproduce the
paper's index-cache stress test, which splits each segment ~10 ways to
model external fragmentation (Section IV-D).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.address import PAGE_SHIFT
from repro.common.stats import StatGroup


class OutOfMemoryError(Exception):
    """No free extent can satisfy an allocation request."""


class FrameAllocator:
    """First-fit extent allocator over the physical frame space."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0 or total_bytes % (1 << PAGE_SHIFT):
            raise ValueError("physical memory must be a positive page multiple")
        self.total_frames = total_bytes >> PAGE_SHIFT
        self.stats = StatGroup("frames")
        # Sorted, disjoint, non-adjacent free extents.
        self._free: List[Tuple[int, int]] = [(0, self.total_frames)]
        self._allocated_frames = 0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def alloc_contiguous(self, frames: int, align_frames: int = 1) -> int:
        """Allocate ``frames`` contiguous frames; returns the start frame.

        ``align_frames`` forces the start onto that alignment (e.g. 512
        for 2 MB-aligned regions that can back huge pages); any leading
        slack stays on the free list.
        """
        if frames <= 0:
            raise ValueError("allocation must be at least one frame")
        if align_frames < 1 or align_frames & (align_frames - 1):
            raise ValueError("alignment must be a positive power of two")
        for i, (start, end) in enumerate(self._free):
            aligned = (start + align_frames - 1) & ~(align_frames - 1)
            if end - aligned >= frames:
                pieces = []
                if aligned > start:
                    pieces.append((start, aligned))
                if aligned + frames < end:
                    pieces.append((aligned + frames, end))
                self._free[i:i + 1] = pieces
                self._allocated_frames += frames
                self.stats.add("extent_allocs")
                self.stats.add("frames_allocated", frames)
                return aligned
        raise OutOfMemoryError(f"no contiguous extent of {frames} frames "
                               f"(alignment {align_frames})")

    def alloc_frame(self) -> int:
        """Allocate a single frame (demand paging / page-table nodes)."""
        return self.alloc_contiguous(1)

    def alloc_best_effort(self, frames: int) -> List[Tuple[int, int]]:
        """Allocate ``frames`` total as few extents as possible.

        Falls back to smaller pieces, largest free extent first, when no
        single extent fits — this is what forces the OS to split one
        logical allocation into several segments under fragmentation.
        Returns ``[(start_frame, frame_count), ...]``.
        """
        pieces: List[Tuple[int, int]] = []
        remaining = frames
        try:
            while remaining > 0:
                largest = self.largest_free_extent()
                if largest == 0:
                    raise OutOfMemoryError("physical memory exhausted")
                take = min(remaining, largest)
                start = self.alloc_contiguous(take)
                pieces.append((start, take))
                remaining -= take
        except OutOfMemoryError:
            for start, count in pieces:
                self.free(start, count)
            raise
        return pieces

    def free(self, start_frame: int, frames: int) -> None:
        """Return an extent to the free list, coalescing with neighbours."""
        if frames <= 0:
            raise ValueError("free must cover at least one frame")
        new_start, new_end = start_frame, start_frame + frames
        insert_at = 0
        for i, (s, e) in enumerate(self._free):
            if s >= new_end:
                insert_at = i
                break
            if e > new_start:
                raise ValueError(f"double free of frames [{new_start}, {new_end})")
            insert_at = i + 1
        self._free.insert(insert_at, (new_start, new_end))
        self._coalesce(insert_at)
        self._allocated_frames -= frames
        self.stats.add("frames_freed", frames)

    def _coalesce(self, index: int) -> None:
        if index + 1 < len(self._free):
            s, e = self._free[index]
            ns, ne = self._free[index + 1]
            if e == ns:
                self._free[index] = (s, ne)
                del self._free[index + 1]
        if index > 0:
            ps, pe = self._free[index - 1]
            s, e = self._free[index]
            if pe == s:
                self._free[index - 1] = (ps, e)
                del self._free[index]

    # ------------------------------------------------------------------ #
    # Fragmentation & introspection
    # ------------------------------------------------------------------ #

    def fragment(self, max_extent_frames: int, rng) -> None:
        """Artificially shatter free space so no extent exceeds the cap.

        Implements the paper's external-fragmentation injection: holes are
        punched at random offsets inside oversized free extents, pinning
        one frame per cut (the pinned frames are leaked by design — they
        model memory held by other tenants).
        """
        shattered: List[Tuple[int, int]] = []
        for start, end in self._free:
            while end - start > max_extent_frames:
                cut_span = min(max_extent_frames, end - start - 1)
                cut = start + rng.randint(1, cut_span)
                shattered.append((start, cut))
                start = cut + 1  # pin one frame as the hole
                self._allocated_frames += 1
            if end > start:
                shattered.append((start, end))
        self._free = shattered
        self.stats.add("fragmentation_passes")

    def largest_free_extent(self) -> int:
        """Size (frames) of the largest free extent."""
        return max((e - s for s, e in self._free), default=0)

    def free_frames(self) -> int:
        return sum(e - s for s, e in self._free)

    def allocated_frames(self) -> int:
        return self._allocated_frames

    def free_extent_count(self) -> int:
        return len(self._free)

    def frame_to_pa(self, frame: int) -> int:
        """Byte address of a frame."""
        return frame << PAGE_SHIFT
