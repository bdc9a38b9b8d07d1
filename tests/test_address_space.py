"""Direct tests for processes, VMAs and VA-area management."""

import pytest

from repro.common.address import PAGE_SIZE
from repro.common.params import SegmentTranslationConfig, SystemConfig
from repro.energy import EnergyModel, EnergyParams
from repro.osmodel import FrameAllocator, Kernel, OsSegmentTable
from repro.osmodel.address_space import POLICY_DEMAND, Process, Vma

MB = 1024 * 1024


@pytest.fixture()
def process():
    frames = FrameAllocator(256 * MB)
    table = OsSegmentTable(SegmentTranslationConfig().segment_table_entries)
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
        table = OsSegmentTable(SegmentTranslationConfig().segment_table_entries)
        p1 = Process("a", 1, frames, table)
        p2 = Process("b", 2, frames, table)
        assert (p1.reserve_va(PAGE_SIZE, area="mmap")
                != p2.reserve_va(PAGE_SIZE, area="mmap"))

    def test_sizes_page_aligned(self, process):
        a = process.reserve_va(100)
        b = process.reserve_va(100)
        assert (b - a) % PAGE_SIZE == 0


#: Per kernel (THP off, on): the base each placement in
#: :func:`_interleaved_layout` returned (a reservation also its length),
#: then each process's VMAs as (vbase, length, policy, segments), each
#: segment as (vbase, length, pbase).
PINNED_LAYOUTS = {
    False: (
        [0x1037F000, 0x10384000, 0x10684000, (0x10687000, 0x400000),
         0x10A87000, 0x10B88000, 0x10B8C000, 0x10B8E000, 0x10B90000,
         (0x10D90000, 0x200000), 0x10B8E000, 0x10B8F000],
        {"parent": [
            (0x10384000, 0x300000, "eager", [(0x10384000, 0x300000, 0x1000)]),
            (0x10A87000, 0x101000, "eager",
             [(0x10A87000, 0x101000, 0x701000)]),
            (0x10B88000, 0x4000, "demand", []),
            (0x10B8C000, 0x2000, "eager", [(0x10B8C000, 0x2000, 0x802000)]),
            (0x10B8E000, 0x1000, "eager", [(0x10B8E000, 0x1000, 0xC05000)])],
         "parent-child": [
            (0x10384000, 0x300000, "demand", []),
            (0x10A87000, 0x101000, "demand", []),
            (0x10B88000, 0x4000, "demand", []),
            (0x10B8C000, 0x2000, "demand", []),
            (0x10B90000, 0x200000, "eager",
             [(0x10B90000, 0x200000, 0x805000)])]}),
    True: (
        [0x1037F000, 0x10400000, 0x10800000, (0x10803000, 0x400000),
         0x10E00000, 0x11000000, 0x11200000, 0x11400000, 0x11600000,
         (0x11800000, 0x200000), 0x11400000, 0x11600000],
        {"parent": [
            (0x10400000, 0x400000, "eager",
             [(0x10400000, 0x400000, 0x200000)]),
            (0x10E00000, 0x200000, "eager",
             [(0x10E00000, 0x200000, 0xA00000)]),
            (0x11000000, 0x4000, "demand", []),
            (0x11200000, 0x200000, "eager",
             [(0x11200000, 0x200000, 0xC00000)]),
            (0x11400000, 0x200000, "eager",
             [(0x11400000, 0x200000, 0x1200000)])],
         "parent-child": [
            (0x10400000, 0x400000, "demand", []),
            (0x10E00000, 0x200000, "demand", []),
            (0x11000000, 0x4000, "demand", []),
            (0x11200000, 0x200000, "demand", []),
            (0x11600000, 0x200000, "eager",
             [(0x11600000, 0x200000, 0xE00000)])]}),
}


def _interleaved_layout(thp):
    """Heap placements of every kind, in a parent and its fork."""
    kernel = Kernel(SystemConfig(), transparent_huge_pages=thp)
    parent = kernel.create_process("parent")
    placed = [
        parent.reserve_va(0x5000),
        kernel.mmap(parent, 3 * MB, policy="eager").vbase,
        parent.reserve_va(0x3000),
        parent.segment_allocator.reserve(4 * MB),
        kernel.mmap(parent, MB + 0x1000, policy="eager").vbase,
        kernel.mmap(parent, 0x4000).vbase,
        kernel.mmap(parent, 0x2000, policy="eager").vbase,
    ]
    child = kernel.fork(parent)
    placed += [
        child.reserve_va(0x2000),
        kernel.mmap(child, 2 * MB, policy="eager").vbase,
        child.segment_allocator.reserve(2 * MB),
        kernel.mmap(parent, 0x1000, policy="eager").vbase,
        parent.reserve_va(0x1000),
    ]
    vmas = {p.name: [(v.vbase, v.length, v.policy,
                      [(s.vbase, s.length, s.pbase) for s in v.segments])
                     for v in p.vmas()] for p in (parent, child)}
    return placed, vmas


class TestHeapPlacement:
    @pytest.mark.parametrize("thp", [False, True], ids=["4k", "thp"])
    def test_interleaved_placements_pinned(self, thp):
        """Plain heap ranges, eager mappings, reservations and a fork
        share one heap cursor: every base and segment is as recorded."""
        assert _interleaved_layout(thp) == PINNED_LAYOUTS[thp]


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
