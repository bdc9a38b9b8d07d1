"""Deeper virtualization tests: delayed 2-D engines, multi-VM isolation."""

import pytest

from repro.common.address import PAGE_SIZE, page_base
from repro.core.mmu_base import AccessOutcome
from repro.sim import Simulator, lay_out
from repro.virt import (
    Hypervisor,
    VirtConventionalMmu,
    VirtHybridMmu,
)

MB = 1024 * 1024


@pytest.fixture()
def hv():
    return Hypervisor()


def guest(vm, size=4 * MB):
    g = vm.guest_kernel
    p = g.create_process("app")
    vma = g.mmap(p, size, policy="eager")
    return p, vma


class TestDelayed2dTlbEngine:
    def test_miss_then_hit(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        cold = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert cold.delayed_cycles > mmu.delayed.tlb.latency  # nested walk
        # Same page, different block: delayed TLB hit, no walk.
        warm = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase + 512, False))
        assert warm.delayed_cycles == mmu.delayed.tlb.latency

    def test_unknown_engine_rejected(self, hv):
        vm = hv.create_vm("vm")
        with pytest.raises(ValueError):
            VirtHybridMmu(hv, vm, delayed="bogus")


class TestDelayedSegment2dEngine:
    def test_sc_caches_gva_to_ma_directly(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        mmu = VirtHybridMmu(hv, vm, delayed="segments")
        cold = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        warm = AccessOutcome._make(
            mmu.access(0, p.asid, vma.vbase + 4 * PAGE_SIZE, False))
        assert warm.delayed_cycles < cold.delayed_cycles
        assert warm.delayed_cycles == mmu.delayed.segment_cache.latency
        assert mmu.delayed.stats["sc_hits"] == 1

    def test_sc_clipped_at_host_segment_boundary(self, hv):
        """A gVA→MA entry must not translate across host segments."""
        from repro.virt.hypervisor import VirtualMachine

        # Pin one machine frame a little past one host segment's worth,
        # so the VM's first two host segments land in separate machine
        # extents, with different offsets.
        chunk = VirtualMachine.HOST_SEGMENT_CHUNK // PAGE_SIZE
        low = hv.machine_frames.alloc_contiguous(chunk + 16)
        hv.machine_frames.alloc_contiguous(1)
        hv.machine_frames.free(low, chunk + 16)
        vm = hv.create_vm("vm")
        first, second = vm.host_segments[:2]
        assert first.offset != second.offset
        # Fill guest memory up to 4 MB below the gPA boundary between
        # them, so an 8 MB eager mapping straddles it.
        g = vm.guest_kernel
        p = g.create_process("app")
        first_free = g.frames.alloc_contiguous(1)
        g.frames.alloc_contiguous(chunk - 1024 - first_free - 1)
        vma = g.mmap(p, 8 * MB, policy="eager")
        guest_seg = g.segment_table.find(p.asid, vma.vbase)
        boundary_gva = second.gpa_base - guest_seg.offset
        # The boundary splits one 2 MB segment-cache region.
        assert boundary_gva % (2 * MB)
        mmu = VirtHybridMmu(hv, vm, delayed="segments")
        # The page below the boundary fills its region's entry; the page
        # at the boundary must not hit it.  Every result must equal the
        # functional 2-D translation.
        spread = [vma.vbase + off for off in range(0, 8 * MB, 1 * MB + 4096)]
        for va in [boundary_gva - PAGE_SIZE, boundary_gva] + spread:
            out = AccessOutcome._make(mmu.access(0, p.asid, va, False))
            assert out.translated_pa == vm.translate_2d(p.asid, va)[0]

    def test_fallback_for_demand_pages(self, hv):
        vm = hv.create_vm("vm")
        g = vm.guest_kernel
        p = g.create_process("app")
        vma = g.mmap(p, 8 * PAGE_SIZE, policy="demand")
        mmu = VirtHybridMmu(hv, vm, delayed="segments")
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.translated_pa == vm.translate_2d(p.asid, vma.vbase)[0]
        assert mmu.delayed.stats["nested_fallbacks"] == 1


class TestMultiVmIsolation:
    def test_same_gva_different_vms_distinct_blocks(self, hv):
        vm1, vm2 = hv.create_vm("vm1"), hv.create_vm("vm2")
        p1, vma1 = guest(vm1, size=1 * MB)
        p2, vma2 = guest(vm2, size=1 * MB)
        mmu1 = VirtHybridMmu(hv, vm1, delayed="tlb")
        mmu2 = VirtHybridMmu(hv, vm2, delayed="tlb")
        # Same guest layout in both VMs; MAs must differ (VM isolation).
        out1 = AccessOutcome._make(mmu1.access(0, p1.asid, vma1.vbase, True))
        out2 = AccessOutcome._make(mmu2.access(0, p2.asid, vma2.vbase, True))
        assert vma1.vbase == vma2.vbase
        assert out1.translated_pa != out2.translated_pa

    def test_vmid_extension_prevents_cross_vm_homonyms(self, hv):
        vm1, vm2 = hv.create_vm("vm1"), hv.create_vm("vm2")
        p1, _ = guest(vm1)
        p2, _ = guest(vm2)
        assert p1.asid == p2.asid  # guest-local ASIDs collide...
        assert (hv.global_asid(vm1, p1.asid)
                != hv.global_asid(vm2, p2.asid))  # ...global ones don't

    def test_cross_vm_content_sharing(self, hv):
        vm1, vm2 = hv.create_vm("vm1"), hv.create_vm("vm2")
        p1, vma1 = guest(vm1)
        p2, vma2 = guest(vm2)
        gpa1 = vm1.guest_kernel.translate(p1.asid, vma1.vbase).pa
        gpa2 = vm2.guest_kernel.translate(p2.asid, vma2.vbase).pa
        ma = hv.share_content_pages([(vm1, gpa1), (vm2, gpa2)])
        assert page_base(vm1.host_translate(gpa1)) == page_base(ma)
        assert page_base(vm2.host_translate(gpa2)) == page_base(ma)

    def test_simulation_through_two_vms(self, hv):
        """Both VMs run a workload through their own MMUs to completion."""
        ipcs = {}
        for name in ("vm1", "vm2"):
            vm = hv.create_vm(name)
            w = lay_out("astar", vm.guest_kernel)
            mmu = VirtHybridMmu(hv, vm, delayed="segments")
            result = Simulator(mmu).run(w, accesses=2000, warmup=500)
            ipcs[name] = result.ipc
        assert all(v > 0 for v in ipcs.values())


class TestLateSynonymDetection:
    """Section V-A special case: a guest remap onto a hypervisor-shared
    frame is discovered during the delayed 2-D walk."""

    def test_late_detection_marks_filter_and_renames(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        gva_a = vma.vbase
        gva_b = vma.vbase + 8 * PAGE_SIZE
        gpa_a = vm.guest_kernel.translate(p.asid, gva_a).pa
        vm.guest_kernel.translate(p.asid, gva_b)  # faults in the PTE unmapped below
        # The hypervisor folds the two frames; its inverse map knows both
        # gVAs for gpa_a's page but the filter update covers only gva_a
        # (gva_b is the "new mapping the guest made without telling it").
        vm.record_gva(p.asid, gva_a, gpa_a)
        hv.share_content_pages([(vm, gpa_a)], readonly_virtual=False)
        # Now the guest remaps gva_b onto the shared guest-physical frame
        # without the hypervisor updating its filter (the stale case).
        p.page_table.unmap(gva_b)
        p.page_table.map(gva_b, gpa_a >> 12)
        vm.record_gva(p.asid, gva_b, gpa_a)  # inverse map learns of it...
        vm.host_filter.rebuild([gva_a])      # ...but the filter is stale
        assert not vm.host_filter.is_synonym_candidate(gva_b)

        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        out = AccessOutcome._make(mmu.access(0, p.asid, gva_b, False))
        # The delayed walk caught it: trap counted, filter updated, and
        # the access completed under the physical (machine) name.
        assert mmu.hybrid_stats["late_synonym_detections"] == 1
        assert vm.host_filter.is_synonym_candidate(gva_b)
        from repro.common.address import virtual_block_key
        stale = virtual_block_key(mmu.asid_of(p.asid), gva_b)
        assert mmu.caches.probe_line(0, stale) is None
        assert out.translated_pa is not None

    def test_no_false_triggers_on_private_frames(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        for offset in range(0, 16 * PAGE_SIZE, PAGE_SIZE):
            mmu.access(0, p.asid, vma.vbase + offset, False)
        assert mmu.hybrid_stats["late_synonym_detections"] == 0


class TestVirtBaselineDetails:
    def test_nested_tlb_absorbs_host_walks(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        mmu = VirtConventionalMmu(hv, vm)
        for i in range(64):
            mmu.access(0, p.asid, vma.vbase + i * PAGE_SIZE, False)
        walker = mmu.walker.stats
        # Average reads per walk must be far below the 24 worst case.
        assert walker["memory_reads"] / walker["walks"] < 12

    def test_guest_shootdowns_reach_virt_tlbs(self, hv):
        """Guest OS remaps must invalidate the virtualized TLBs."""
        vm = hv.create_vm("vm")
        p, vma = guest(vm)
        mmu = VirtConventionalMmu(hv, vm)
        mmu.access(0, p.asid, vma.vbase, False)
        walks_before = mmu.walker.stats["walks"]
        vm.guest_kernel.shootdown_page(p.asid, vma.vbase)
        mmu.access(0, p.asid, vma.vbase, False)
        assert mmu.walker.stats["walks"] == walks_before + 1

    def test_guest_munmap_flushes_hybrid_cached_lines(self, hv):
        vm = hv.create_vm("vm")
        g = vm.guest_kernel
        p = g.create_process("app")
        vma = g.mmap(p, 8 * PAGE_SIZE, policy="demand")
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        mmu.access(0, p.asid, vma.vbase, True)
        from repro.common.address import virtual_block_key
        key = virtual_block_key(mmu.asid_of(p.asid), vma.vbase)
        assert mmu.caches.probe_line(0, key) is not None
        g.munmap(p, vma)
        assert mmu.caches.probe_line(0, key) is None

    def test_shootdown_free_guest_switches(self, hv):
        """Two guest processes interleave without evicting each other's
        cached state (VMID⊕ASID tagging)."""
        vm = hv.create_vm("vm")
        g = vm.guest_kernel
        a = g.create_process("a")
        b = g.create_process("b")
        vma_a = g.mmap(a, 1 * MB, policy="eager")
        vma_b = g.mmap(b, 1 * MB, policy="eager")
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        mmu.access(0, a.asid, vma_a.vbase, False)
        mmu.access(0, b.asid, vma_b.vbase, False)
        out = AccessOutcome._make(mmu.access(0, a.asid, vma_a.vbase, False))
        # Still cache-resident (page-walk traffic may demote it from L1,
        # but nothing flushed it to memory).
        assert out.hit_level in ("l1", "l2", "llc")
