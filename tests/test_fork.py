"""Tests for fork() with copy-on-write under hybrid virtual caching."""

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE, page_base, virtual_block_key
from repro.common.params import SystemConfig
from repro.core import AccessOutcome, HybridMmu
from repro.filters import SynonymFilter
from repro.osmodel import Kernel
from tests.test_filters import filter_state

MB = 1024 * 1024


@pytest.fixture()
def system():
    config = dataclasses.replace(SystemConfig(), cores=2)
    kernel = Kernel(config)
    parent = kernel.create_process("parent")
    vma = kernel.mmap(parent, 16 * PAGE_SIZE, policy="demand")
    # Touch every page so fork has something to share.
    for i in range(16):
        kernel.translate(parent.asid, vma.vbase + i * PAGE_SIZE)
    return config, kernel, parent, vma


class TestSharedVmaFork:
    def test_child_marks_shared_pages_as_page_by_page(self, system):
        """The child's filter and page list match marking each page."""
        _config, kernel, parent, _vma = system
        peer = kernel.create_process("peer")
        kernel.mmap_shared([parent, peer], 6 * PAGE_SIZE + 1)
        child = kernel.fork(parent)
        (shared,) = [v for v in child.vmas() if v.shared]
        pages = list(range(shared.vbase, shared.vlimit, PAGE_SIZE))
        reference = SynonymFilter()
        for va in pages:
            reference.mark_shared(va)
        assert child.shared_page_list == pages
        assert filter_state(child.synonym_filter) == filter_state(reference)


class TestForkSemantics:
    def test_child_shares_frames_readonly(self, system):
        _config, kernel, parent, vma = system
        child = kernel.fork(parent)
        t_parent = kernel.translate(parent.asid, vma.vbase)
        t_child = kernel.translate(child.asid, vma.vbase)
        assert page_base(t_parent.pa) == page_base(t_child.pa)
        assert not t_parent.permissions & 0x2
        assert not t_child.permissions & 0x2

    def test_no_filter_update_needed(self, system):
        """CoW pages are r/o synonyms: Section III-D says they may stay
        virtually addressed — neither filter flags them."""
        _config, kernel, parent, vma = system
        child = kernel.fork(parent)
        assert not parent.synonym_filter.is_synonym_candidate(vma.vbase)
        assert not child.synonym_filter.is_synonym_candidate(vma.vbase)

    def test_child_write_privatizes(self, system):
        _config, kernel, parent, vma = system
        child = kernel.fork(parent)
        shared_pa = page_base(kernel.translate(parent.asid, vma.vbase).pa)
        kernel.handle_cow_fault(child, vma.vbase)
        child_pa = page_base(kernel.translate(child.asid, vma.vbase).pa)
        parent_pa = page_base(kernel.translate(parent.asid, vma.vbase).pa)
        assert child_pa != shared_pa
        assert parent_pa == shared_pa  # parent untouched

    def test_shared_vmas_stay_shared(self):
        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)
        child = kernel.fork(a)
        child_shared = [v for v in child.vmas() if v.shared]
        assert len(child_shared) == 1
        t = kernel.translate(child.asid, child_shared[0].vbase)
        assert page_base(t.pa) == page_base(
            kernel.translate(a.asid, vmas[a.asid].vbase).pa)
        assert child.synonym_filter.is_synonym_candidate(
            child_shared[0].vbase)

    def test_untouched_pages_fault_fresh_in_child(self, system):
        _config, kernel, parent, _vma = system
        extra = kernel.mmap(parent, 4 * PAGE_SIZE, policy="demand")
        # Never touched in the parent before fork.
        child = kernel.fork(parent)
        t = kernel.translate(child.asid, extra.vbase)
        assert t.pa is not None  # fresh demand frame, not a fault


class TestForkThroughHybridMmu:
    def test_cow_write_through_mmu(self, system):
        config, kernel, parent, vma = system
        mmu = HybridMmu(kernel, config, delayed="tlb")
        # Parent caches a line r/w before the fork...
        before = AccessOutcome._make(mmu.access(0, parent.asid, vma.vbase, True))
        child = kernel.fork(parent)
        # ...fork downgraded the cached copies in place.
        from repro.common.address import virtual_block_key
        line = mmu.caches.probe_line(0, virtual_block_key(parent.asid,
                                                          vma.vbase))
        if line is not None:
            assert not line.permissions & 0x2
        # Child read sees the shared frame.
        read = AccessOutcome._make(mmu.access(1, child.asid, vma.vbase, False))
        assert page_base(read.translated_pa) == page_base(before.translated_pa)
        # Child write triggers the CoW permission fault and privatizes.
        write = AccessOutcome._make(mmu.access(1, child.asid, vma.vbase, True))
        assert mmu.hybrid_stats["permission_faults"] >= 1
        assert page_base(write.translated_pa) != page_base(before.translated_pa)
        # Parent's data is unaffected.
        again = AccessOutcome._make(mmu.access(0, parent.asid, vma.vbase, False))
        assert page_base(again.translated_pa) == page_base(before.translated_pa)

    def test_both_sides_can_privatize(self, system):
        config, kernel, parent, vma = system
        mmu = HybridMmu(kernel, config, delayed="tlb")
        child = kernel.fork(parent)
        pa_child = AccessOutcome._make(
            mmu.access(1, child.asid, vma.vbase, True)).translated_pa
        pa_parent = AccessOutcome._make(
            mmu.access(0, parent.asid, vma.vbase, True)).translated_pa
        assert page_base(pa_child) != page_base(pa_parent)

    @pytest.mark.parametrize("delayed", ["tlb", "segments"])
    def test_write_hitting_l2_after_l1_eviction_still_faults(self, delayed):
        """Fill-time permission delivery reaches the L2 copy as well: a
        child write that misses L1 but hits L2 must still raise the CoW
        permission fault (Section III-D), not write the shared frame."""
        config = SystemConfig()
        kernel = Kernel(config)
        parent = kernel.create_process("parent")
        vma = kernel.mmap(parent, 64 * PAGE_SIZE, policy="demand")
        for i in range(64):
            kernel.translate(parent.asid, vma.vbase + i * PAGE_SIZE)
        mmu = HybridMmu(kernel, config, delayed=delayed)
        child = kernel.fork(parent)
        va = vma.vbase
        shared = page_base(kernel.translate(parent.asid, va).pa)
        mmu.access(0, child.asid, va, False)
        # Four more blocks of the same (4-way) L1 set evict the copy.
        l1_stride = config.l1.sets * config.l1.block_size
        for k in range(1, 5):
            mmu.access(0, child.asid, va + k * l1_stride, False)
        key = virtual_block_key(child.asid, va)
        assert mmu.caches.l1[0].probe(key) is None
        assert mmu.caches.l2[0].probe(key) is not None

        write = AccessOutcome._make(mmu.access(0, child.asid, va, True))
        assert mmu.hybrid_stats["permission_faults"] == 1
        assert kernel.stats["cow_faults"] == 1
        translation = kernel.translate(child.asid, va)
        assert page_base(translation.pa) != shared
        assert translation.permissions & 0x2
        assert page_base(write.translated_pa) == page_base(translation.pa)
