"""Tests for OS segments: table, allocator, reservations, utilization."""

import pytest

from repro.common.params import SystemConfig
from repro.common.rng import make_rng
from repro.osmodel import (
    FrameAllocator,
    Kernel,
    OsSegmentTable,
    SegmentAllocator,
    SegmentFault,
)

MB = 1024 * 1024
PAGE = 4096


@pytest.fixture()
def system():
    frames = FrameAllocator(256 * MB)
    table = OsSegmentTable(capacity=2048)
    return frames, table


class TestSegment:
    def test_translate_with_offset(self, system):
        frames, table = system
        seg = table.insert(asid=1, vbase=0x1000_0000, length=1 * MB,
                           pbase=0x40_0000)
        assert seg.offset == 0x40_0000 - 0x1000_0000
        assert seg.translate(0x1000_0123) == 0x40_0123

    def test_translate_outside_raises(self, system):
        _frames, table = system
        seg = table.insert(1, 0x1000_0000, 1 * MB, 0)
        with pytest.raises(SegmentFault):
            seg.translate(0x1000_0000 + 2 * MB)

    def test_touch_and_utilization(self, system):
        _frames, table = system
        seg = table.insert(1, 0, 10 * PAGE, 0)
        for i in range(4):
            seg.touch(i * PAGE)
        seg.touch(PAGE)  # duplicate touch doesn't double count
        assert seg.utilization() == pytest.approx(0.4)


class TestOsSegmentTable:
    def test_find_by_containment(self, system):
        _frames, table = system
        table.insert(1, 0x1000, 0x1000, 0)
        seg = table.insert(1, 0x1_0000, 0x2000, 0x8000)
        assert table.find(1, 0x1_0800) is seg

    def test_find_wrong_asid_faults(self, system):
        _frames, table = system
        table.insert(1, 0x1000, 0x1000, 0)
        with pytest.raises(SegmentFault):
            table.find(2, 0x1000)

    def test_find_gap_faults(self, system):
        _frames, table = system
        table.insert(1, 0x1000, 0x1000, 0)
        with pytest.raises(SegmentFault):
            table.find(1, 0x5000)

    def test_capacity_enforced(self):
        table = OsSegmentTable(capacity=2)
        table.insert(1, 0x1000, PAGE, 0)
        table.insert(1, 0x3000, PAGE, 0)
        with pytest.raises(MemoryError):
            table.insert(1, 0x5000, PAGE, 0)

    def test_remove(self, system):
        _frames, table = system
        seg = table.insert(1, 0x1000, PAGE, 0)
        table.remove(seg.seg_id)
        with pytest.raises(SegmentFault):
            table.find(1, 0x1000)
        assert table.live_count() == 0

    def test_grow(self, system):
        _frames, table = system
        seg = table.insert(1, 0x1000, PAGE, 0)
        table.grow(seg.seg_id, PAGE)
        assert table.find(1, 0x1000 + PAGE) is seg

    def test_generation_bumps_on_mutation(self, system):
        _frames, table = system
        g0 = table.generation
        seg = table.insert(1, 0x1000, PAGE, 0)
        g1 = table.generation
        table.grow(seg.seg_id, PAGE)
        g2 = table.generation
        table.remove(seg.seg_id)
        g3 = table.generation
        assert g0 < g1 < g2 < g3

    def test_peak_live_tracked(self, system):
        _frames, table = system
        a = table.insert(1, 0x1000, PAGE, 0)
        b = table.insert(1, 0x3000, PAGE, 0)
        table.remove(a.seg_id)
        table.remove(b.seg_id)
        assert table.peak_live == 2

    def test_segments_sorted_order(self, system):
        _frames, table = system
        table.insert(2, 0x2000, PAGE, 0)
        table.insert(1, 0x9000, PAGE, 0)
        table.insert(1, 0x1000, PAGE, 0)
        order = [(s.asid, s.vbase) for s in table.segments_sorted()]
        assert order == sorted(order)


class TestSegmentAllocator:
    def test_contiguous_requests_merge(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        first, _ = alloc.allocate(1 * MB)
        second, segments = alloc.allocate(1 * MB)  # adjacent -> merged
        assert second == first + 1 * MB
        assert table.live_count() == 1
        assert segments == [table.find(1, first)]
        assert segments[0].length == 2 * MB

    def test_noise_breaks_merge(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        alloc.allocate(1 * MB)
        frames.alloc_frame()  # someone else allocates in between
        alloc.allocate(1 * MB)
        assert table.live_count() == 2

    def test_fragmented_memory_splits_request(self, system):
        frames, table = system
        frames.fragment(max_extent_frames=64, rng=make_rng(3))
        alloc = SegmentAllocator(1, table, frames)
        vbase, segments = alloc.allocate(1 * MB)  # 256 frames > any extent
        assert len(segments) > 1
        assert sum(s.length for s in segments) == 1 * MB
        assert segments[0].vbase == vbase

    def test_unaligned_fallback_when_no_aligned_extent_fits(self, system):
        frames, table = system
        frames.fragment(max_extent_frames=64, rng=make_rng(3))
        alloc = SegmentAllocator(1, table, frames)
        alloc.align_frames = 512
        vbase, segments = alloc.allocate(2 * MB)  # no free 2 MB extent
        assert vbase % (2 * MB) == 0
        assert len(segments) > 1
        assert sum(s.length for s in segments) == 2 * MB
        assert segments[0].vbase == vbase

    def test_rejected_alignment_raises(self):
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        process = kernel.create_process("p")
        process.segment_allocator.align_frames = 3  # not a power of two
        with pytest.raises(ValueError, match="power of two"):
            kernel.mmap(process, 4 * MB, policy="eager")
        assert process.vmas() == []
        assert kernel.segment_table.live_count() == 0

    def test_translation_consistency(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        _vbase, segs = alloc.allocate(4 * MB)
        for seg in segs:
            va = seg.vbase + seg.length // 2
            assert table.find(1, va).translate(va) == va + seg.offset


class TestReservationAllocation:
    def test_promotion_on_touch(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        vbase, length = alloc.reserve(8 * MB)
        assert table.live_count() == 0  # nothing promoted yet
        seg = alloc.touch_reserved(vbase + 100)
        assert seg is not None
        assert table.live_count() == 1
        assert seg.length == SegmentAllocator.RESERVATION_CHUNK

    def test_adjacent_promotions_merge(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        vbase, _length = alloc.reserve(8 * MB)
        chunk = SegmentAllocator.RESERVATION_CHUNK
        alloc.touch_reserved(vbase)
        alloc.touch_reserved(vbase + chunk)
        assert table.live_count() == 1  # merged into one segment
        assert table.find(1, vbase).length == 2 * chunk

    def test_forward_merge_of_disjoint_promotions(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        vbase, _ = alloc.reserve(8 * MB)
        chunk = SegmentAllocator.RESERVATION_CHUNK
        alloc.touch_reserved(vbase)              # segment A
        alloc.touch_reserved(vbase + 2 * chunk)  # segment B (gap)
        assert table.live_count() == 2
        alloc.touch_reserved(vbase + chunk)      # fills the gap -> one seg
        assert table.live_count() == 1
        assert table.find(1, vbase).length == 3 * chunk

    def test_touch_outside_reservation_returns_none(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        alloc.reserve(2 * MB)
        assert alloc.touch_reserved(0xDEAD_0000_0000) is None

    def test_repeated_touch_returns_same_segment(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        vbase, _ = alloc.reserve(4 * MB)
        a = alloc.touch_reserved(vbase + 10)
        b = alloc.touch_reserved(vbase + 20)
        assert a is b

    def test_reserved_translation_correct(self, system):
        frames, table = system
        alloc = SegmentAllocator(1, table, frames)
        vbase, _ = alloc.reserve(4 * MB)
        seg = alloc.touch_reserved(vbase)
        chunk = SegmentAllocator.RESERVATION_CHUNK
        alloc.touch_reserved(vbase + chunk)
        # Translation through the merged segment must match the
        # reservation's linear mapping.
        va = vbase + chunk + 123
        assert table.find(1, va).translate(va) == seg.pbase + chunk + 123
