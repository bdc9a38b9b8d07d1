"""Tests for 2 MB huge-page support (page table, kernel THP, THP MMU)."""

import pytest

from repro.common.address import align_up
from repro.common.params import SystemConfig
from repro.core.mmu_base import AccessOutcome
from repro.core.thp import ThpBaselineMmu
from repro.osmodel import FrameAllocator, Kernel, PageTable
from repro.osmodel.pagetable import HUGE_PAGE_SIZE, PageFault
from repro.sim import lay_out
from repro.workloads import catalog

MB = 1024 * 1024


class TestPageTableHugeLeaves:
    @pytest.fixture()
    def table(self):
        return PageTable(FrameAllocator(256 * MB))

    def test_map_translate(self, table):
        table.map_huge(0x4000_0000, pfn=1024)
        pa = table.translate(0x4000_0000 + 0x12_3456)
        assert pa == (1024 << 12) + 0x12_3456

    def test_entry_reports_huge(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        entry = table.entry(0x4000_0000 + 4096)
        assert entry.is_huge
        assert entry.page_shift == 21

    def test_walk_is_three_levels(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        assert len(table.walk_path(0x4000_0000 + 99)) == 3

    def test_alignment_enforced(self, table):
        with pytest.raises(ValueError):
            table.map_huge(0x4000_1000, pfn=512)       # unaligned VA
        with pytest.raises(ValueError):
            table.map_huge(0x4000_0000, pfn=511)       # unaligned PA

    def test_cannot_shadow_small_pages(self, table):
        table.map(0x4000_0000, 7)
        with pytest.raises(ValueError):
            table.map_huge(0x4000_0000, pfn=512)

    def test_unmap_removes_whole_leaf(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        assert table.mapped_pages == 512
        entry = table.unmap(0x4000_0000 + 5 * 4096)
        assert entry.is_huge
        assert table.mapped_pages == 0
        with pytest.raises(PageFault):
            table.entry(0x4000_0000)

    def test_iter_mappings_reports_huge_base(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        table.map(0x9000_0000, 3)
        mappings = dict(table.iter_mappings())
        assert 0x4000_0000 in mappings
        assert mappings[0x4000_0000].is_huge
        assert 0x9000_0000 in mappings

    def test_mixed_sizes_coexist_in_region(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        table.map(0x4000_0000 + HUGE_PAGE_SIZE, 9)  # next 2 MB slot, 4 KB
        assert table.entry(0x4000_0000).is_huge
        assert not table.entry(0x4000_0000 + HUGE_PAGE_SIZE).is_huge


class TestThpKernel:
    def test_eager_touch_installs_huge_leaf(self):
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * MB, policy="eager")
        kernel.translate(p.asid, vma.vbase + 123)
        assert p.page_table.entry(vma.vbase).is_huge
        assert kernel.stats["huge_first_touches"] == 1

    def test_huge_translation_matches_segment(self):
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * MB, policy="eager")
        seg = vma.segments[0]
        va = vma.vbase + 3 * MB + 77
        assert kernel.translate(p.asid, va).pa == va + seg.offset

    def test_non_thp_kernel_uses_small_pages(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * MB, policy="eager")
        kernel.translate(p.asid, vma.vbase)
        assert not p.page_table.entry(vma.vbase).is_huge

    def test_demand_pages_stay_small(self):
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * MB, policy="demand")
        kernel.translate(p.asid, vma.vbase)
        assert not p.page_table.entry(vma.vbase).is_huge

    def test_thp_allocations_are_aligned(self):
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 6 * MB, policy="eager")
        seg = vma.segments[0]
        assert seg.pbase % HUGE_PAGE_SIZE == 0
        assert seg.vbase % HUGE_PAGE_SIZE == 0

    def test_merged_eager_requests_get_disjoint_vmas(self):
        """Adjacency merging grows one segment across several requests;
        each VMA still covers only its own aligned request."""
        kernel = Kernel(SystemConfig(), transparent_huge_pages=True)
        p = kernel.create_process("p")
        requests = (MB // 2, 3 * MB, 2 * MB)
        vmas = [kernel.mmap(p, size, policy="eager") for size in requests]
        assert len({id(seg) for vma in vmas for seg in vma.segments}) == 1
        assert [vma.length for vma in vmas] == [2 * MB, 4 * MB, 2 * MB]
        for before, after in zip(vmas, vmas[1:]):
            assert before.vlimit == after.vbase

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_layouts_have_disjoint_vmas(self, name):
        spec = catalog.spec(name)
        laid_out = lay_out(name, Kernel(SystemConfig(),
                                        transparent_huge_pages=True))
        private = spec.footprint_bytes - (
            int(spec.footprint_bytes * spec.sharing.area_fraction)
            if spec.sharing else 0)
        chunk = spec.alloc_chunk_bytes or private
        aligned = sum(align_up(min(chunk, private - start), HUGE_PAGE_SIZE)
                      for start in range(0, private, chunk))
        for process in laid_out.processes:
            vmas = process.vmas()
            for before, after in zip(vmas, vmas[1:]):
                assert before.vlimit <= after.vbase
            assert sum(vma.length for vma in
                       laid_out.private_vmas[process.asid]) == aligned


class TestThpBaselineMmu:
    def _system(self):
        config = SystemConfig()
        kernel = Kernel(config, transparent_huge_pages=True)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 16 * MB, policy="eager")
        mmu = ThpBaselineMmu(kernel, config)
        return kernel, p, vma, mmu

    def test_translation_correct(self):
        kernel, p, vma, mmu = self._system()
        for off in (0, 5 * MB + 7, 16 * MB - 8):
            out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + off, False))
            assert out.translated_pa == kernel.translate(p.asid,
                                                         vma.vbase + off).pa

    def test_huge_tlb_covers_whole_2mb(self):
        _k, p, vma, mmu = self._system()
        mmu.access(0, p.asid, vma.vbase, False)          # walk + huge fill
        out = AccessOutcome._make(
            mmu.access(0, p.asid, vma.vbase + MB, False))  # same 2 MB page
        assert out.front_cycles == 0
        assert mmu.walkers[0].stats["walks"] == 1

    def test_reach_beats_small_baseline(self):
        """One huge entry covers 512 small pages: far fewer walks."""
        from repro.core import ConventionalMmu
        from repro.sim import Simulator, lay_out

        config = SystemConfig()
        walks = {}
        for thp in (False, True):
            kernel = Kernel(config, transparent_huge_pages=thp)
            workload = lay_out("gups", kernel)
            mmu = (ThpBaselineMmu(kernel, config) if thp
                   else ConventionalMmu(kernel, config))
            Simulator(mmu).run(workload, accesses=4000, warmup=1000)
            walks[thp] = sum(w.stats["walks"] for w in mmu.walkers)
        assert walks[True] < walks[False] / 4

    def test_small_pages_still_work(self):
        kernel, p, _vma, mmu = self._system()
        stack = kernel.mmap(p, 8 * 4096, policy="demand")
        out = AccessOutcome._make(mmu.access(0, p.asid, stack.vbase, False))
        assert out.translated_pa == kernel.translate(p.asid, stack.vbase).pa
        warm = AccessOutcome._make(mmu.access(0, p.asid, stack.vbase, False))
        assert warm.front_cycles == 0

    def test_shootdown_covers_both_sizes(self):
        kernel, p, vma, mmu = self._system()
        mmu.access(0, p.asid, vma.vbase, False)
        kernel.shootdown_page(p.asid, vma.vbase)
        mmu.access(0, p.asid, vma.vbase, False)
        assert mmu.walkers[0].stats["walks"] == 2  # re-walked after shootdown
