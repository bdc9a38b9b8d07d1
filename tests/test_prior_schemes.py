"""Tests for the prior-scheme MMUs and new OS flows (DMA, mprotect)."""

import dataclasses

from repro.common.address import PAGE_SIZE, virtual_block_key
from repro.common.params import SystemConfig
from repro.core import AccessOutcome, ConventionalMmu, HybridMmu
from repro.core.prior import DirectSegmentMmu, EnigmaMmu, RmmMmu
from repro.osmodel import Kernel
from repro.osmodel.pagetable import PERM_READ, PERM_RW

MB = 1024 * 1024


def system(cores=2):
    return dataclasses.replace(SystemConfig(), cores=cores)


def setup(mmu_cls, size=8 * MB, **kw):
    config = system()
    kernel = Kernel(config)
    p = kernel.create_process("p")
    vma = kernel.mmap(p, size, policy="eager")
    mmu = mmu_cls(kernel, config, **kw)
    return kernel, p, vma, mmu


class TestDirectSegmentMmu:
    def test_in_segment_translation_is_free(self):
        kernel, p, vma, mmu = setup(DirectSegmentMmu)
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + 123, False))
        assert out.front_cycles == 0
        assert out.translated_pa == kernel.translate(p.asid, vma.vbase + 123).pa

    def test_outside_segment_uses_paging(self):
        kernel, p, vma, mmu = setup(DirectSegmentMmu)
        stack = kernel.mmap(p, 16 * PAGE_SIZE, policy="demand")
        out = AccessOutcome._make(mmu.access(0, p.asid, stack.vbase, False))
        assert out.front_cycles > 0  # cold TLB walk
        assert out.translated_pa == kernel.translate(p.asid, stack.vbase).pa
        warm = AccessOutcome._make(mmu.access(0, p.asid, stack.vbase, False))
        assert warm.front_cycles == 0  # L1 TLB hit now

    def test_largest_segment_selected(self):
        config = system()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        small = kernel.mmap(p, 1 * MB, policy="eager")
        kernel.frames.alloc_frame()  # prevent merging
        big = kernel.mmap(p, 4 * MB, policy="eager")
        mmu = DirectSegmentMmu(kernel, config)
        mmu.access(0, p.asid, big.vbase, False)
        assert mmu.segment.translate(p.asid, big.vbase) is not None
        assert mmu.segment.translate(p.asid, small.vbase) is None


class TestRmmMmu:
    def test_range_hit_avoids_walk(self):
        kernel, p, vma, mmu = setup(RmmMmu)
        mmu.access(0, p.asid, vma.vbase, False)
        # Range fill happened; another page in the same range needs no walk.
        far = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + 4 * MB, False))
        assert far.front_cycles == mmu.config.l2_tlb.latency
        assert far.translated_pa == kernel.translate(p.asid,
                                                     vma.vbase + 4 * MB).pa
        assert mmu.walkers[0].stats["walks"] == 0

    def test_translation_matches_kernel(self):
        kernel, p, vma, mmu = setup(RmmMmu)
        for off in (0, 1 * MB, 8 * MB - 64):
            out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + off, False))
            assert out.translated_pa == kernel.translate(p.asid,
                                                         vma.vbase + off).pa

    def test_demand_pages_fall_back_to_walks(self):
        kernel, p, _vma, mmu = setup(RmmMmu)
        stack = kernel.mmap(p, 4 * PAGE_SIZE, policy="demand")
        out = AccessOutcome._make(mmu.access(0, p.asid, stack.vbase, False))
        assert out.translated_pa == kernel.translate(p.asid, stack.vbase).pa
        assert mmu.walkers[0].stats["walks"] == 1


class TestEnigmaMmu:
    def test_first_level_always_charged(self):
        kernel, p, vma, mmu = setup(EnigmaMmu)
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.front_cycles == EnigmaMmu.FIRST_LEVEL_CYCLES
        warm = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert warm.front_cycles == EnigmaMmu.FIRST_LEVEL_CYCLES
        assert warm.delayed_cycles == 0  # cache hit: no delayed translation

    def test_translation_matches_kernel(self):
        kernel, p, vma, mmu = setup(EnigmaMmu)
        for off in (5, 3 * MB, 8 * MB - 8):
            out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + off, False))
            assert out.translated_pa == kernel.translate(p.asid,
                                                         vma.vbase + off).pa

    def test_synonyms_collapse_to_one_intermediate_name(self):
        config = system()
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 16 * PAGE_SIZE)
        mmu = EnigmaMmu(kernel, config)
        ia = mmu._intermediate(a.asid, vmas[a.asid].vbase + 100)
        ib = mmu._intermediate(b.asid, vmas[b.asid].vbase + 100)
        assert ia == ib  # one name -> coherence without a filter
        out_a = AccessOutcome._make(mmu.access(0, a.asid, vmas[a.asid].vbase, True))
        out_b = AccessOutcome._make(mmu.access(1, b.asid, vmas[b.asid].vbase, False))
        assert out_a.translated_pa == out_b.translated_pa
        assert out_b.hit_level in ("llc", "l1", "l2")

    def test_each_shared_region_draws_one_namespace(self):
        """A region's namespace is picked at its first access only, so
        accesses to one region never advance the next region's id."""
        config = system()
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        first = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)[a.asid]
        second = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)[a.asid]
        mmu = EnigmaMmu(kernel, config)
        for i in range(5000):
            mmu.access(0, a.asid, first.vbase + (i * 8) % first.length, False)
        assert mmu._intermediate(a.asid, first.vbase)[0] == 0xF002
        assert mmu._intermediate(a.asid, second.vbase)[0] == 0xF003

    def test_private_namespaces_distinct(self):
        config = system()
        kernel = Kernel(config)
        a = kernel.create_process("a", va_base=0x1000_0000)
        b = kernel.create_process("b", va_base=0x1000_0000)
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        mmu = EnigmaMmu(kernel, config)
        assert (mmu._intermediate(a.asid, 0x1000_0000)
                != mmu._intermediate(b.asid, 0x1000_0000))


class TestDmaRegistration:
    def test_dma_pages_become_synonyms(self):
        kernel, p, vma, mmu = setup(HybridMmu, delayed="tlb")
        buffer_va = vma.vbase + 64 * PAGE_SIZE
        mmu.access(0, p.asid, buffer_va, False)  # cached under ASID+VA
        kernel.register_dma_region(p, buffer_va, 4 * PAGE_SIZE)
        # Filter now flags the pages...
        assert p.synonym_filter.is_synonym_candidate(buffer_va)
        assert kernel.is_synonym_page(p.asid, buffer_va)
        # ...the stale virtual line is flushed...
        key = virtual_block_key(p.asid, buffer_va)
        assert mmu.caches.probe_line(0, key) is None
        # ...and the next access is cached physically.
        out = AccessOutcome._make(mmu.access(0, p.asid, buffer_va, False))
        from repro.common.address import physical_block_key
        assert mmu.caches.probe_line(
            0, physical_block_key(out.translated_pa)) is not None

    def test_dma_on_unmapped_pages_faults_them_in(self):
        config = system()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * PAGE_SIZE, policy="demand")
        kernel.register_dma_region(p, vma.vbase, 2 * PAGE_SIZE)
        assert p.page_table.mapped_pages == 2


class TestPermissionChange:
    def test_mprotect_downgrades_cached_copies(self):
        kernel, p, vma, mmu = setup(HybridMmu, delayed="tlb")
        va = vma.vbase
        mmu.access(0, p.asid, va, False)
        key = virtual_block_key(p.asid, va)
        assert mmu.caches.probe_line(0, key).permissions == PERM_RW
        kernel.change_permissions(p, va, PAGE_SIZE, PERM_READ)
        line = mmu.caches.probe_line(0, key)
        assert line is not None          # copies stay resident...
        assert line.permissions == PERM_READ  # ...but downgraded in place

    def test_write_after_downgrade_triggers_cow(self):
        kernel, p, vma, mmu = setup(HybridMmu, delayed="tlb")
        va = vma.vbase
        mmu.access(0, p.asid, va, False)
        old_pa = kernel.translate(p.asid, va).pa
        kernel.change_permissions(p, va, PAGE_SIZE, PERM_READ)
        out = AccessOutcome._make(mmu.access(0, p.asid, va, True))
        assert mmu.hybrid_stats["permission_faults"] == 1
        assert out.translated_pa != old_pa  # CoW gave a fresh page

    def test_pte_updated(self):
        kernel, p, vma, _mmu = setup(ConventionalMmu)
        for i in range(3):
            kernel.translate(p.asid, vma.vbase + i * PAGE_SIZE)
        kernel.change_permissions(p, vma.vbase, 2 * PAGE_SIZE, PERM_READ)
        assert p.page_table.entry(vma.vbase).permissions == PERM_READ
        assert p.page_table.entry(vma.vbase + PAGE_SIZE).permissions == PERM_READ
        assert p.page_table.entry(vma.vbase + 2 * PAGE_SIZE).permissions == PERM_RW
