"""Tests for the delayed segment-translation hardware."""

import pytest

from repro.common.params import SegmentTranslationConfig, SystemConfig
from repro.osmodel import Kernel, OsSegmentTable, SegmentFault
from repro.segtrans import (
    HwSegmentTable,
    IndexCache,
    ManySegmentTranslator,
    SegmentCache,
)
from repro.segtrans.rmm import DirectSegment, RangeTlb

MB = 1024 * 1024
PAGE = 4096


def make_table(n=4, asid=1, length=1 * MB):
    table = OsSegmentTable(SegmentTranslationConfig().segment_table_entries)
    va, pa = 0x1000_0000, 0x200_0000
    for _ in range(n):
        table.insert(asid, va, length, pa)
        va += length + PAGE
        pa += length + PAGE
    return table


class TestHwSegmentTable:
    def test_cold_fill_charges_interrupt(self):
        table = make_table()
        hw = HwSegmentTable(table)
        seg_id = table.segments_sorted()[0].seg_id
        seg, cycles = hw.read(seg_id)
        assert seg is not None
        assert cycles == hw.latency + HwSegmentTable.FILL_INTERRUPT_CYCLES
        _seg, cycles2 = hw.read(seg_id)
        assert cycles2 == hw.latency

    def test_stale_id(self):
        table = make_table()
        hw = HwSegmentTable(table)
        seg_id = table.segments_sorted()[0].seg_id
        table.remove(seg_id)
        seg, _cycles = hw.read(seg_id)
        assert seg is None

    def test_overflow_names_the_configured_size(self):
        table = make_table(n=3)
        hw = HwSegmentTable(table,
                            SegmentTranslationConfig(segment_table_entries=2))
        first, second, third = (s.seg_id for s in table.segments_sorted())
        hw.read(first)
        hw.read(second)
        with pytest.raises(MemoryError, match="within 2 entries"):
            hw.read(third)


class TestIndexCache:
    def test_miss_then_hit(self):
        ic = IndexCache(memory_charge=lambda pa: 100)
        first = ic.read_node(0x4000)
        second = ic.read_node(0x4000)
        assert first == ic.latency + 100
        assert second == ic.latency
        assert ic.hit_rate() == 0.5

    def test_size_override(self):
        ic = IndexCache(SegmentTranslationConfig(index_cache_size=1024))
        assert ic.size_bytes == 1024

    def test_tiny_sizes_degrade_ways(self):
        # 128 B cannot sustain 8 ways.
        ic = IndexCache(SegmentTranslationConfig(index_cache_size=128))
        ic.read_node(0)
        ic.read_node(64)
        ic.read_node(128)
        assert ic.occupancy() <= 2

    def test_flush(self):
        ic = IndexCache(memory_charge=lambda pa: 100)
        ic.read_node(0x4000)
        ic.flush()
        assert ic.read_node(0x4000) == ic.latency + 100

    def test_capacity_eviction(self):
        ic = IndexCache(SegmentTranslationConfig(index_cache_size=512),
                        memory_charge=lambda pa: 0)
        for i in range(64):
            ic.read_node(i * 64)
        assert ic.occupancy() <= 8


class TestSegmentCache:
    def _sc(self):
        return SegmentCache(SegmentTranslationConfig(segment_cache_entries=4))

    def test_hit_translates(self):
        sc = self._sc()
        sc.fill(asid=1, va=0x20_0000, seg_vbase=0, seg_vlimit=0x4000_0000,
                offset=0x1000_0000)
        assert sc.lookup(1, 0x20_1234) == 0x20_1234 + 0x1000_0000

    def test_region_boundary_misses(self):
        sc = self._sc()
        sc.fill(1, 0x20_0000, 0, 0x4000_0000, 0x1000_0000)
        assert sc.lookup(1, 0x20_0000 + (2 << 20)) is None  # next 2MB region

    def test_segment_boundary_clipping(self):
        """A segment ending mid-region must not translate past its limit."""
        sc = self._sc()
        region = 0x40_0000  # 2 MB aligned
        seg_end = region + 0x8_0000  # segment covers only 512 KB of region
        sc.fill(1, region, 0, seg_end, 0x1000)
        assert sc.lookup(1, region + 0x7_FFFF) == region + 0x7_FFFF + 0x1000
        assert sc.lookup(1, seg_end + 0x10) is None

    def test_lru_capacity(self):
        sc = self._sc()
        for i in range(5):
            sc.fill(1, i << 21, 0, 1 << 40, 0)
        assert sc.lookup(1, 0) is None  # oldest evicted
        assert sc.lookup(1, 4 << 21) is not None

    def test_asid_isolation(self):
        sc = self._sc()
        sc.fill(1, 0, 0, 1 << 30, 0x1000)
        assert sc.lookup(2, 0) is None


class TestManySegmentTranslator:
    def _kernel_with_segments(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * MB, policy="eager")
        return kernel, p, vma

    def test_translation_matches_kernel(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        for offset in (0, 123, 5 * MB, 8 * MB - 1):
            va = vma.vbase + offset
            assert ms.translate(p.asid, va)[0] == kernel.translate(p.asid, va).pa

    def test_sc_hit_fast_path(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        _pa, first_cycles, _perms, first_sc_hit, _nodes = ms.translate(
            p.asid, vma.vbase)
        _pa, second_cycles, _perms, second_sc_hit, _nodes = ms.translate(
            p.asid, vma.vbase + 64)
        assert not first_sc_hit
        assert second_sc_hit
        assert second_cycles < first_cycles

    def test_no_sc_configuration(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel, use_segment_cache=False)
        _pa, _cycles, _perms, a_sc_hit, _nodes = ms.translate(p.asid, vma.vbase)
        _pa, _cycles, _perms, b_sc_hit, b_nodes = ms.translate(
            p.asid, vma.vbase + 64)
        assert not a_sc_hit and not b_sc_hit
        assert b_nodes >= 1

    def test_uncovered_address_faults(self):
        kernel, p, _vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        with pytest.raises(SegmentFault):
            ms.translate(p.asid, 0x7ead_0000_0000)

    def test_table_mutation_flushes_structures(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        ms.translate(p.asid, vma.vbase)
        # New allocation changes the segment table generation.
        vma2 = kernel.mmap(p, 2 * MB, policy="eager")
        pa = ms.translate(p.asid, vma2.vbase)[0]
        assert pa == kernel.translate(p.asid, vma2.vbase).pa
        # Old address still translates correctly after the rebuild.
        assert (ms.translate(p.asid, vma.vbase)[0]
                == kernel.translate(p.asid, vma.vbase).pa)


class TestRangeTlb:
    def test_hit_after_fill(self):
        table = make_table(n=4)
        rt = RangeTlb(table, entries=2)
        seg = table.segments_sorted()[0]
        miss_pa, _miss_cycles, miss_hit = rt.lookup(1, seg.vbase)
        _hit_pa, hit_cycles, hit_hit = rt.lookup(1, seg.vbase + 100)
        assert not miss_hit and hit_hit
        assert miss_pa == seg.vbase + seg.offset
        assert hit_cycles == 0

    def test_thrashing_beyond_capacity(self):
        table = make_table(n=8)
        rt = RangeTlb(table, entries=2)
        segs = table.segments_sorted()
        for _round in range(3):
            for seg in segs:
                rt.lookup(1, seg.vbase)
        # 8 ranges through 2 entries round-robin: everything misses.
        assert rt.stats["hits"] == 0
        assert rt.miss_count() == 24

    def test_fault_outside_segments(self):
        table = make_table()
        rt = RangeTlb(table)
        with pytest.raises(SegmentFault):
            rt.lookup(1, 0x7000_0000_0000)


class TestDirectSegment:
    def test_inside_translates(self):
        ds = DirectSegment()
        ds.configure(asid=1, base=0x1000_0000, limit=0x2000_0000,
                     offset=0x5000_0000)
        assert ds.translate(1, 0x1800_0000) == 0x1800_0000 + 0x5000_0000

    def test_outside_falls_back(self):
        ds = DirectSegment()
        ds.configure(1, 0x1000_0000, 0x2000_0000, 0)
        assert ds.translate(1, 0x3000_0000) is None
        assert ds.stats["fallbacks"] == 1

    def test_unconfigured_asid_falls_back(self):
        ds = DirectSegment()
        assert ds.translate(9, 0x1000) is None

    def test_invalid_limit(self):
        ds = DirectSegment()
        with pytest.raises(ValueError):
            ds.configure(1, 0x2000, 0x1000, 0)

    def test_configure_from_segment(self):
        table = make_table(n=1)
        ds = DirectSegment()
        seg = table.segments_sorted()[0]
        ds.configure_from_segment(seg)
        assert ds.translate(1, seg.vbase + 5) == seg.vbase + 5 + seg.offset
