"""Direct tests for processes, VMAs and VA-area management."""

import pytest

from repro.common.address import PAGE_SIZE
from repro.energy import EnergyModel, EnergyParams
from repro.osmodel import FrameAllocator, OsSegmentTable
from repro.osmodel.address_space import POLICY_DEMAND, Process, Vma

MB = 1024 * 1024


@pytest.fixture()
def process():
    frames = FrameAllocator(256 * MB)
    table = OsSegmentTable()
    return Process("p", asid=3, frames=frames, segment_table=table)


class TestVma:
    def test_contains(self):
        vma = Vma(0x1000, 0x2000, POLICY_DEMAND)
        assert vma.contains(0x1000)
        assert vma.contains(0x2FFF)
        assert not vma.contains(0x3000)
        assert not vma.contains(0xFFF)

    def test_vlimit(self):
        assert Vma(0x1000, 0x2000, POLICY_DEMAND).vlimit == 0x3000

    def test_segment_for_empty(self):
        assert Vma(0x1000, 0x2000, POLICY_DEMAND).segment_for(0x1500) is None


class TestVaAreas:
    def test_heap_reservations_monotone(self, process):
        a = process.reserve_va(0x4000)
        b = process.reserve_va(0x4000)
        assert b >= a + 0x4000

    def test_mmap_area_far_from_heap(self, process):
        heap = process.reserve_va(0x4000)
        mmap_area = process.reserve_va(0x4000, area="mmap")
        assert mmap_area > 0x7F00_0000_0000 - 1
        assert abs(mmap_area - heap) > (1 << 40)

    def test_mmap_area_guard_pages(self, process):
        a = process.reserve_va(PAGE_SIZE, area="mmap")
        b = process.reserve_va(PAGE_SIZE, area="mmap")
        assert b >= a + 2 * PAGE_SIZE  # guard page between mappings

    def test_mmap_areas_distinct_per_asid(self):
        frames = FrameAllocator(64 * MB)
        table = OsSegmentTable()
        p1 = Process("a", 1, frames, table)
        p2 = Process("b", 2, frames, table)
        assert (p1.reserve_va(PAGE_SIZE, area="mmap")
                != p2.reserve_va(PAGE_SIZE, area="mmap"))

    def test_sizes_page_aligned(self, process):
        a = process.reserve_va(100)
        b = process.reserve_va(100)
        assert (b - a) % PAGE_SIZE == 0


class TestVmaIndex:
    def test_find_vma(self, process):
        lo = process.add_vma(Vma(0x1_0000, 0x1000, POLICY_DEMAND))
        hi = process.add_vma(Vma(0x5_0000, 0x2000, POLICY_DEMAND))
        assert process.find_vma(0x1_0800) is lo
        assert process.find_vma(0x5_1FFF) is hi
        assert process.find_vma(0x3_0000) is None
        assert process.find_vma(0x0_0500) is None

    def test_remove_vma(self, process):
        vma = process.add_vma(Vma(0x1_0000, 0x1000, POLICY_DEMAND))
        process.remove_vma(vma)
        assert process.find_vma(0x1_0000) is None
        assert process.vmas() == []

    def test_vmas_listed_sorted(self, process):
        process.add_vma(Vma(0x5_0000, 0x1000, POLICY_DEMAND))
        process.add_vma(Vma(0x1_0000, 0x1000, POLICY_DEMAND))
        bases = [v.vbase for v in process.vmas()]
        assert bases == sorted(bases)


class TestSharedBookkeeping:
    def test_record_and_rebuild(self, process):
        pages = [0x7F00_0000_0000 + i * PAGE_SIZE for i in range(5)]
        for va in pages:
            process.record_shared_page(va)
        assert process.shared_page_list == pages
        process.rebuild_filter()
        for va in pages:
            assert process.synonym_filter.is_synonym_candidate(va)

    def test_range_matches_page_by_page(self, process):
        start, length = 0x7F00_0000_0100, 3 * PAGE_SIZE
        process.record_shared_range(start, length)
        pages = [0x7F00_0000_0000 + i * PAGE_SIZE for i in range(4)]
        assert process.shared_page_list == pages
        for va in pages:
            assert process.synonym_filter.is_synonym_candidate(va)
        assert process.synonym_filter.stats["pages_marked"] == 4

    def test_mapped_bytes(self, process):
        assert process.mapped_bytes() == 0
        process.page_table.map(0x1000, 5)
        assert process.mapped_bytes() == PAGE_SIZE


class TestStaticEnergy:
    def test_baseline_vs_hybrid_static(self):
        model = EnergyModel()
        cycles = 1_000_000
        base = model.baseline_static_energy(cycles)
        hybrid_tlb = model.hybrid_static_energy(cycles, segments=False)
        hybrid_seg = model.hybrid_static_energy(cycles, segments=True)
        assert base > 0 and hybrid_tlb > 0 and hybrid_seg > 0
        # The hybrid replaces two per-core TLBs with one small TLB + a
        # filter; its per-core static cost is lower even after the shared
        # delayed structures and tag overhead are charged.
        assert hybrid_tlb < base * 1.5

    def test_static_scales_with_cycles_and_cores(self):
        model = EnergyModel()
        assert (model.baseline_static_energy(2000, cores=2)
                == 2 * model.baseline_static_energy(2000, cores=1))
        assert (model.baseline_static_energy(2000)
                == 2 * model.baseline_static_energy(1000))

    def test_tag_static_overhead_within_paper_bound(self):
        p = EnergyParams()
        overhead = p.cache_static_pj * p.tag_extension_static_overhead
        assert overhead / p.cache_static_pj <= 0.0032  # <= 0.32 %
