"""Tests for the kernel facade: mmap policies, sharing, CoW, shootdowns."""

import pytest

from repro.common.address import PAGE_SIZE, page_base
from repro.common.params import SystemConfig
from repro.osmodel import (
    Kernel,
    POLICY_DEMAND,
    POLICY_EAGER,
    SegmentationViolation,
)
from repro.osmodel.pagetable import PERM_READ, PERM_RW

MB = 1024 * 1024


@pytest.fixture()
def kernel():
    return Kernel(SystemConfig())


class TestProcesses:
    def test_asids_unique(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert a.asid != b.asid
        assert kernel.process(a.asid) is a

    def test_fresh_process_has_empty_filter(self, kernel):
        p = kernel.create_process("p")
        assert p.synonym_filter.fill_ratio() == 0.0


class TestMmapPolicies:
    def test_demand_mapping_faults_lazily(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 1 * MB, policy=POLICY_DEMAND)
        assert p.page_table.mapped_pages == 0
        t = kernel.translate(p.asid, vma.vbase + 5000)
        assert t.pa is not None
        assert kernel.stats["demand_faults"] == 1
        assert p.page_table.mapped_pages == 1

    def test_eager_mapping_creates_segments_upfront(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * MB, policy=POLICY_EAGER)
        assert vma.segments
        assert kernel.segment_table.live_count() >= 1
        # Page table still fills on first touch (utilization tracking).
        assert p.page_table.mapped_pages == 0
        kernel.translate(p.asid, vma.vbase)
        assert p.page_table.mapped_pages == 1

    def test_eager_translation_matches_segment_arithmetic(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 2 * MB, policy=POLICY_EAGER)
        seg = vma.segments[0]
        va = vma.vbase + 0x1234
        assert kernel.translate(p.asid, va).pa == va + seg.offset

    def test_unknown_policy_rejected(self, kernel):
        p = kernel.create_process("p")
        with pytest.raises(ValueError):
            kernel.mmap(p, MB, policy="bogus")

    def test_access_outside_vmas_faults(self, kernel):
        p = kernel.create_process("p")
        with pytest.raises(SegmentationViolation):
            kernel.translate(p.asid, 0xDEAD_0000_0000)

    def test_munmap_demand_frees_frames(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 64 * PAGE_SIZE, policy=POLICY_DEMAND)
        for i in range(4):
            kernel.translate(p.asid, vma.vbase + i * PAGE_SIZE)
        free_before = kernel.frames.free_frames()
        kernel.munmap(p, vma)
        assert kernel.frames.free_frames() == free_before + 4
        with pytest.raises(SegmentationViolation):
            kernel.translate(p.asid, vma.vbase)

    def test_munmap_eager_releases_segments(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 2 * MB, policy=POLICY_EAGER)
        live_before = kernel.segment_table.live_count()
        kernel.munmap(p, vma)
        assert kernel.segment_table.live_count() < live_before

    def test_munmap_merged_segment_shared_by_two_vmas(self, kernel):
        # Back-to-back eager mmaps merge into one segment when VA and PA
        # are both adjacent; the segment must survive until its LAST
        # referencing VMA is unmapped, and unmapping both must not
        # double-remove it or double-free its frames.
        p = kernel.create_process("p")
        vma1 = kernel.mmap(p, PAGE_SIZE, policy=POLICY_EAGER)
        vma2 = kernel.mmap(p, PAGE_SIZE, policy=POLICY_EAGER)
        merged = (len(vma1.segments) == 1 and len(vma2.segments) == 1
                  and vma1.segments[0] is vma2.segments[0])
        assert merged, "expected adjacency merge for back-to-back eager mmaps"
        seg = vma1.segments[0]
        kernel.munmap(p, vma1)
        assert kernel.segment_table.get(seg.seg_id) is seg  # still live
        kernel.munmap(p, vma2)  # must not raise
        frames = kernel.frames
        assert (frames.free_frames() + frames.allocated_frames()
                == frames.total_frames)
        # Fresh allocations after the teardown stay consistent (the
        # allocator must not merge into the removed segment).
        vma3 = kernel.mmap(p, PAGE_SIZE, policy=POLICY_EAGER)
        assert kernel.segment_table.get(vma3.segments[0].seg_id) is not None
        kernel.munmap(p, vma3)

    def test_unmapped_va_never_placed_again(self, kernel):
        """No address space places a VA twice.

        Nothing invalidates what translation hardware caches for a
        removed segment or a retired ASID (segment-cache and range-TLB
        entries, direct-segment registers, ASID+VA lines).  That is safe
        only because no live (ASID, VA) pair can name such state again:
        ASIDs are never reused, and within an address space every
        placement after an munmap starts at or above the end of the
        unmapped range, in the heap and in the mmap area alike.
        """
        p, q = kernel.create_process("p"), kernel.create_process("q")
        demand = kernel.mmap(p, 1 * MB, policy=POLICY_DEMAND)
        eager = kernel.mmap(p, 2 * MB, policy=POLICY_EAGER)
        shared = kernel.mmap_shared([p, q], 16 * PAGE_SIZE)[p.asid]
        for vma in (demand, eager, shared):
            kernel.translate(p.asid, vma.vbase)
            kernel.munmap(p, vma)
        heap_end = max(demand.vlimit, eager.vlimit)
        assert kernel.mmap(p, 1 * MB, policy=POLICY_DEMAND).vbase >= heap_end
        assert kernel.mmap(p, 2 * MB, policy=POLICY_EAGER).vbase >= heap_end
        assert p.segment_allocator.reserve(2 * MB)[0] >= heap_end
        later = kernel.mmap_shared([p, q], 16 * PAGE_SIZE)[p.asid]
        assert later.vbase >= shared.vlimit


class TestSharedMappings:
    def test_synonyms_share_physical(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vmas = kernel.mmap_shared([a, b], 1 * MB)
        va_a, va_b = vmas[a.asid].vbase, vmas[b.asid].vbase
        assert va_a != va_b  # true synonyms: different virtual names
        pa_a = kernel.translate(a.asid, va_a + 0x2345).pa
        pa_b = kernel.translate(b.asid, va_b + 0x2345).pa
        assert pa_a == pa_b

    def test_shared_pages_marked_in_filters_and_ptes(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vmas = kernel.mmap_shared([a, b], 16 * PAGE_SIZE)
        for p, vma in ((a, vmas[a.asid]), (b, vmas[b.asid])):
            assert p.synonym_filter.is_synonym_candidate(vma.vbase)
            kernel.translate(p.asid, vma.vbase)
            assert kernel.is_synonym_page(p.asid, vma.vbase)

    def test_private_pages_not_synonyms(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, MB, policy=POLICY_EAGER)
        kernel.translate(p.asid, vma.vbase)
        assert not kernel.is_synonym_page(p.asid, vma.vbase)


class TestStatusTransitions:
    def test_share_existing_pages_updates_everything(self, kernel):
        flushes = []
        shootdowns = []
        kernel.on_page_flush(lambda a, v, s: flushes.append((a, v, s)))
        kernel.on_shootdown(lambda a, v: shootdowns.append((a, v)))
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * PAGE_SIZE, policy=POLICY_DEMAND)
        for i in range(8):
            kernel.translate(p.asid, vma.vbase + i * PAGE_SIZE)
        kernel.share_existing_pages(p, vma.vbase, 4 * PAGE_SIZE)
        assert p.synonym_filter.is_synonym_candidate(vma.vbase)
        assert kernel.is_synonym_page(p.asid, vma.vbase)
        assert not kernel.is_synonym_page(p.asid, vma.vbase + 5 * PAGE_SIZE)
        assert len(flushes) == 4
        assert len(shootdowns) == 4

    def test_share_readonly_remaps_to_one_frame(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vma_a = kernel.mmap(a, 4 * PAGE_SIZE, policy=POLICY_DEMAND)
        vma_b = kernel.mmap(b, 4 * PAGE_SIZE, policy=POLICY_DEMAND)
        kernel.translate(a.asid, vma_a.vbase)
        kernel.translate(b.asid, vma_b.vbase)
        canonical = kernel.translate(a.asid, vma_a.vbase).pa
        kernel.share_readonly([(a, vma_a.vbase), (b, vma_b.vbase)],
                              page_base(canonical))
        ta = kernel.translate(a.asid, vma_a.vbase)
        tb = kernel.translate(b.asid, vma_b.vbase)
        assert page_base(ta.pa) == page_base(tb.pa) == page_base(canonical)
        assert ta.permissions == PERM_READ
        # r/o content sharing does NOT mark synonym filters (Section III-D).
        assert not a.synonym_filter.is_synonym_candidate(vma_a.vbase)

    def test_cow_fault_gives_private_rw_page(self, kernel):
        a = kernel.create_process("a")
        vma = kernel.mmap(a, 4 * PAGE_SIZE, policy=POLICY_DEMAND)
        kernel.translate(a.asid, vma.vbase)
        old_pa = kernel.translate(a.asid, vma.vbase).pa
        new_base = kernel.handle_cow_fault(a, vma.vbase)
        t = kernel.translate(a.asid, vma.vbase)
        assert page_base(t.pa) == new_base
        assert page_base(t.pa) != page_base(old_pa)
        assert t.permissions == PERM_RW

    def test_filter_rebuild_triggered_by_saturation(self, kernel):
        p = kernel.create_process("p")
        # Force saturation by marking pages scattered across the whole
        # 48-bit space (consecutive regions would collapse into a small
        # hash subspace and never saturate the filter).
        from repro.common.rng import make_rng
        rng = make_rng(11)
        for _ in range(3000):
            p.record_shared_page(rng.randrange(0, 1 << 48) & ~0xFFF)
        assert p.synonym_filter.fill_ratio() > 0.5
        kernel._maybe_rebuild_filter(p)
        assert kernel.stats["filter_rebuilds"] == 1


class TestSegmentServices:
    def test_index_tree_follows_table(self, kernel):
        p = kernel.create_process("p")
        kernel.mmap(p, 2 * MB, policy=POLICY_EAGER)
        tree = kernel.current_index_tree()
        seg = kernel.segment_table.segments_sorted()[0]
        assert tree.lookup(p.asid, seg.vbase).seg_id == seg.seg_id

    def test_segment_lookup(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 2 * MB, policy=POLICY_EAGER)
        seg = kernel.segment_lookup(p.asid, vma.vbase + 100)
        assert seg.contains(vma.vbase + 100)

    def test_pte_path_resolves_faults(self, kernel):
        p = kernel.create_process("p")
        vma = kernel.mmap(p, MB, policy=POLICY_DEMAND)
        path, _pa, _permissions, _shared = kernel.pte_path(p.asid, vma.vbase)
        assert len(path) == 4
