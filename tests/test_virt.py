"""Tests for virtualization: hypervisor, 2-D walks, virtualized MMUs."""

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE, page_base, virtual_page_key
from repro.common.params import SystemConfig
from repro.core.mmu_base import AccessOutcome
from repro.osmodel.pagetable import PERM_READ, PageFault
from repro.sim import Simulator, lay_out
from repro.virt import (
    Hypervisor,
    TwoDWalker,
    VirtConventionalMmu,
    VirtHybridMmu,
)

MB = 1024 * 1024


@pytest.fixture()
def hv():
    return Hypervisor()


@pytest.fixture()
def vm(hv):
    return hv.create_vm("vm0")


def guest_with_memory(vm, size=4 * MB, policy="eager"):
    guest = vm.guest_kernel
    p = guest.create_process("app")
    vma = guest.mmap(p, size, policy=policy)
    return p, vma


class TestVirtualMachine:
    def test_host_backing_covers_guest_space(self, vm):
        # First and last guest-physical pages translate.
        last = vm.guest_kernel.config.physical_memory_bytes - PAGE_SIZE
        assert vm.host_translate(0) is not None
        assert vm.host_translate(last) is not None

    def test_host_translate_linear_within_segment(self, vm):
        seg = vm.host_segments[0]
        assert vm.host_translate(100) == seg.ma_base + 100
        assert vm.host_translate(seg.length - 1) == seg.ma_base + seg.length - 1

    def test_host_segment_fault_outside(self, vm):
        with pytest.raises(PageFault):
            vm.host_segment_for(1 << 45)

    def test_translate_2d_composes(self, vm):
        p, vma = guest_with_memory(vm)
        gva = vma.vbase + 0x1234
        gpa = vm.guest_kernel.translate(p.asid, gva).pa
        ma, _perms, _shared = vm.translate_2d(p.asid, gva)
        assert ma == vm.host_translate(gpa)

    def test_host_walk_path_four_levels(self, vm):
        path, _ma = vm.host_walk_path(0x1000)
        assert len(path) == 4

    def test_vmid_extended_asids_unique(self, hv):
        vm1, vm2 = hv.create_vm("a"), hv.create_vm("b")
        assert hv.global_asid(vm1, 1) != hv.global_asid(vm2, 1)

    def test_guest_asid_past_ten_bits_refused(self, hv, vm):
        """Guest ASIDs 1 and 0x401 would share one global ASID."""
        assert hv.global_asid(vm, 0x3FF) == (vm.vmid << 10) | 0x3FF
        with pytest.raises(ValueError, match="guest ASID 0x401"):
            hv.global_asid(vm, 0x401)

    def test_vmid_past_six_bits_refused(self):
        """VM 65's global ASIDs would be VM 1's: a 64th VM is refused."""
        hv = Hypervisor(dataclasses.replace(SystemConfig(),
                                            physical_memory_bytes=16 * MB))
        vms = [hv.create_vm(f"vm{i}") for i in range(63)]
        assert len({hv.global_asid(vm, 0x3FF) for vm in vms}) == 63
        assert max(hv.global_asid(vm, 0x3FF) for vm in vms) == 0xFFFF
        with pytest.raises(RuntimeError, match="VMID space exhausted"):
            hv.create_vm("one-too-many")


class TestContentSharing:
    def test_share_folds_machine_frames(self, hv, vm):
        p, vma = guest_with_memory(vm)
        gva_a, gva_b = vma.vbase, vma.vbase + 4 * PAGE_SIZE
        gpa_a = vm.guest_kernel.translate(p.asid, gva_a).pa
        gpa_b = vm.guest_kernel.translate(p.asid, gva_b).pa
        hv.share_content_pages([(vm, gpa_a), (vm, gpa_b)])
        assert page_base(vm.host_translate(gpa_a)) == \
            page_base(vm.host_translate(gpa_b))
        # Permissions downgraded to r/o in the host table.
        assert vm.host_page_table.entry(page_base(gpa_b)).permissions == PERM_READ

    def test_synonym_naming_updates_host_filter(self, hv, vm):
        p, vma = guest_with_memory(vm)
        gva_a, gva_b = vma.vbase, vma.vbase + 4 * PAGE_SIZE
        gpa_a = vm.guest_kernel.translate(p.asid, gva_a).pa
        gpa_b = vm.guest_kernel.translate(p.asid, gva_b).pa
        vm.record_gva(p.asid, gva_a, gpa_a)
        vm.record_gva(p.asid, gva_b, gpa_b)
        hv.share_content_pages([(vm, gpa_a), (vm, gpa_b)],
                               readonly_virtual=False)
        assert vm.host_filter.is_synonym_candidate(gva_a)
        assert vm.host_filter.is_synonym_candidate(gva_b)

    def test_gva_count_counts_the_inverse_map(self, vm):
        p, vma = guest_with_memory(vm)
        gpa = vm.guest_kernel.translate(p.asid, vma.vbase).pa
        assert vm.gva_count(gpa) == 0
        vm.record_gva(p.asid, vma.vbase, gpa)
        vm.record_gva(p.asid, vma.vbase + 4 * PAGE_SIZE, gpa + 8)
        assert vm.gva_count(gpa) == 2 == len(vm.gvas_of(gpa))

    def test_readonly_virtual_skips_filter(self, hv, vm):
        p, vma = guest_with_memory(vm)
        gva = vma.vbase
        gpa = vm.guest_kernel.translate(p.asid, gva).pa
        vm.record_gva(p.asid, gva, gpa)
        hv.share_content_pages([(vm, gpa)], readonly_virtual=True)
        assert not vm.host_filter.is_synonym_candidate(gva)

    def test_cow_break(self, hv, vm):
        p, vma = guest_with_memory(vm)
        gpa = vm.guest_kernel.translate(p.asid, vma.vbase).pa
        shared_ma = hv.share_content_pages([(vm, gpa)])
        new_ma = hv.unshare_on_write(vm, gpa)
        assert page_base(new_ma) != page_base(shared_ma)
        assert page_base(vm.host_translate(gpa)) == page_base(new_ma)


class TestTwoDWalker:
    def test_worst_case_bounded_by_24_reads(self, vm):
        p, vma = guest_with_memory(vm)
        walker = TwoDWalker(vm, SystemConfig().walker, charge=lambda ma: 1)
        reads = walker.walk(p.asid, vma.vbase)[4]
        assert 1 <= reads <= 24

    def test_caches_shrink_second_walk(self, vm):
        p, vma = guest_with_memory(vm)
        walker = TwoDWalker(vm, SystemConfig().walker, charge=lambda ma: 1)
        cold_reads = walker.walk(p.asid, vma.vbase)[4]
        warm_reads = walker.walk(p.asid, vma.vbase + PAGE_SIZE)[4]  # same 2 MB region
        assert warm_reads < cold_reads

    def test_walk_result_matches_2d_translation(self, vm):
        p, vma = guest_with_memory(vm)
        walker = TwoDWalker(vm, SystemConfig().walker, charge=lambda ma: 1)
        gva = vma.vbase + 0x777
        _cycles, ma, _permissions, _shared, _reads = walker.walk(p.asid, gva)
        assert ma == vm.translate_2d(p.asid, gva)[0]


class TestVirtMmus:
    def test_translation_agreement(self, hv):
        mas = {}
        for kind in ("baseline", "hybrid_tlb", "hybrid_seg"):
            vm = hv.create_vm(f"vm-{kind}")
            p, vma = guest_with_memory(vm, size=2 * MB)
            if kind == "baseline":
                mmu = VirtConventionalMmu(hv, vm)
            else:
                mmu = VirtHybridMmu(hv, vm,
                                    delayed="tlb" if kind == "hybrid_tlb"
                                    else "segments")
            seg = vma.segments[0]
            host = vm.host_segments[0]
            mas[kind] = [
                AccessOutcome._make(
                    mmu.access(0, p.asid, vma.vbase + off, False)).translated_pa
                - host.ma_base - seg.pbase
                for off in (0, 4096, 65536, 2 * MB - 64)
            ]
        assert mas["baseline"] == mas["hybrid_tlb"] == mas["hybrid_seg"]

    def test_hybrid_bypasses_front_translation(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest_with_memory(vm)
        mmu = VirtHybridMmu(hv, vm, delayed="segments")
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.front_cycles == 0
        assert out.delayed_cycles > 0

    def test_baseline_pays_nested_walk(self, hv):
        vm = hv.create_vm("vm")
        p, vma = guest_with_memory(vm)
        mmu = VirtConventionalMmu(hv, vm)
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.front_cycles > 0

    def test_hybrid_outperforms_baseline_on_tlb_hostile(self, hv):
        results = {}
        for kind in ("baseline", "hybrid"):
            vm = hv.create_vm(f"vm-{kind}")
            w = lay_out("mcf", vm.guest_kernel)
            mmu = (VirtConventionalMmu(hv, vm) if kind == "baseline"
                   else VirtHybridMmu(hv, vm, delayed="segments"))
            results[kind] = Simulator(mmu).run(w, accesses=4000, warmup=1000)
        assert results["hybrid"].ipc > results["baseline"].ipc

    def test_guest_synonyms_detected(self, hv):
        vm = hv.create_vm("vm")
        guest = vm.guest_kernel
        a = guest.create_process("a")
        b = guest.create_process("b")
        guest.mmap(a, MB, policy="eager")
        guest.mmap(b, MB, policy="eager")
        vmas = guest.mmap_shared([a, b], 16 * PAGE_SIZE)
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        out_a = AccessOutcome._make(mmu.access(0, a.asid, vmas[a.asid].vbase, True))
        out_b = AccessOutcome._make(mmu.access(0, b.asid, vmas[b.asid].vbase, False))
        assert out_a.translated_pa == out_b.translated_pa
        assert mmu.hybrid_stats["true_synonym_accesses"] == 2

    def test_hypervisor_synonym_fills_synonym_entry(self, hv):
        """A private guest page whose gPA the inverse map names from two
        gVAs is a synonym: the host filter's candidate fills a synonym
        entry and travels under its machine address."""
        vm = hv.create_vm("vm")
        p, vma = guest_with_memory(vm)
        gva = vma.vbase
        gpa = vm.guest_kernel.translate(p.asid, gva).pa
        vm.record_gva(p.asid, gva, gpa)
        vm.record_gva(p.asid, gva + 4 * PAGE_SIZE, gpa)
        vm.host_filter.mark_shared(gva)
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        out = AccessOutcome._make(mmu.access(0, p.asid, gva, False))
        entry = mmu.synonym_tlb.probe(
            virtual_page_key(mmu.asid_of(p.asid), gva))
        assert entry is not None and entry.is_synonym
        assert mmu.hybrid_stats["true_synonym_accesses"] == 1
        assert mmu.hybrid_stats["false_positive_accesses"] == 0
        assert out.translated_pa == vm.translate_2d(p.asid, gva)[0]

    def test_host_filter_false_positive_leaves_marker_entry(self, hv):
        """A private guest page with only its host-filter bit set walks
        once and leaves a non-synonym marker entry."""
        vm = hv.create_vm("vm")
        p, vma = guest_with_memory(vm)
        gva = vma.vbase
        vm.host_filter.mark_shared(gva)
        mmu = VirtHybridMmu(hv, vm, delayed="tlb")
        mmu.access(0, p.asid, gva, False)
        mmu.access(0, p.asid, gva + 64, False)
        entry = mmu.synonym_tlb.probe(
            virtual_page_key(mmu.asid_of(p.asid), gva))
        assert entry is not None and not entry.is_synonym
        assert mmu.synonym_tlb.stats["hits"] == 1
        assert mmu.hybrid_stats["true_synonym_accesses"] == 0
        assert mmu.hybrid_stats["false_positive_accesses"] == 2
