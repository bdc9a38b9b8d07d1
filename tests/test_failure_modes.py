"""Negative tests: what breaks when the design's guarantees are removed.

The hybrid design rests on two properties; these tests sabotage each one
and demonstrate the resulting failure, pinning down *why* the mechanisms
exist (and guarding against refactors that would quietly weaken them).
"""

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE, physical_block_key, virtual_block_key
from repro.common.params import SystemConfig
from repro.core import AccessOutcome, HybridMmu
from repro.osmodel import Kernel

MB = 1024 * 1024


def shared_system():
    config = dataclasses.replace(SystemConfig(), cores=2)
    kernel = Kernel(config)
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    kernel.mmap(a, MB, policy="eager")
    kernel.mmap(b, MB, policy="eager")
    vmas = kernel.mmap_shared([a, b], 8 * PAGE_SIZE)
    mmu = HybridMmu(kernel, config, delayed="tlb")
    return kernel, a, b, vmas, mmu


class TestFilterFalseNegativeFailure:
    """A filter that can miss synonyms breaks the single-name rule."""

    def test_sabotaged_filter_creates_duplicate_names(self):
        kernel, a, b, vmas, mmu = shared_system()
        # Sabotage: wipe process a's filter after the OS populated it —
        # the exact failure a buggy rebuild or lossy hash would cause.
        a.synonym_filter.fine.clear()
        a.synonym_filter.coarse.clear()

        va_a = vmas[a.asid].vbase
        va_b = vmas[b.asid].vbase
        # a writes through what it now believes is a private page:
        # cached under ASID+VA (the wrong name!).
        mmu.access(0, a.asid, va_a, is_write=True)
        # b accesses the same physical data through the correct PA path.
        mmu.access(1, b.asid, va_b, is_write=False)

        # The failure: the same physical block is now cached under two
        # names at once — the paper's incoherence scenario.
        pa = kernel.translate(b.asid, va_b).pa
        va_name = mmu.caches.probe_line(0, virtual_block_key(a.asid, va_a))
        pa_name = mmu.caches.probe_line(1, physical_block_key(pa))
        assert va_name is not None and pa_name is not None

    def test_intact_filter_prevents_it(self):
        kernel, a, b, vmas, mmu = shared_system()
        mmu.access(0, a.asid, vmas[a.asid].vbase, is_write=True)
        mmu.access(1, b.asid, vmas[b.asid].vbase, is_write=False)
        key = virtual_block_key(a.asid, vmas[a.asid].vbase)
        assert mmu.caches.probe_line(0, key) is None  # single (PA) name


class TestMissingFlushFailure:
    """Skipping the private→shared flush leaves stale virtual copies."""

    def test_transition_without_flush_leaves_stale_line(self):
        config = SystemConfig()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * PAGE_SIZE, policy="demand")
        mmu = HybridMmu(kernel, config, delayed="tlb")
        mmu.access(0, p.asid, vma.vbase, is_write=True)
        key = virtual_block_key(p.asid, vma.vbase)
        assert mmu.caches.probe_line(0, key) is not None

        # Sabotage: flip the PTE + filter to shared WITHOUT the kernel's
        # flush path (what share_existing_pages would normally do).
        kernel.translate(p.asid, vma.vbase)
        p.page_table.set_shared(vma.vbase, True)
        p.record_shared_page(vma.vbase)

        # The stale ASID+VA copy is still resident while new accesses go
        # through the PA path: two names live simultaneously.
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, is_write=False))
        stale = mmu.caches.probe_line(0, key)
        physical = mmu.caches.probe_line(
            0, physical_block_key(out.translated_pa))
        assert stale is not None and physical is not None

    def test_kernel_flush_path_prevents_it(self):
        config = SystemConfig()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * PAGE_SIZE, policy="demand")
        mmu = HybridMmu(kernel, config, delayed="tlb")
        mmu.access(0, p.asid, vma.vbase, is_write=True)
        kernel.share_existing_pages(p, vma.vbase, PAGE_SIZE)
        key = virtual_block_key(p.asid, vma.vbase)
        assert mmu.caches.probe_line(0, key) is None


class TestUndersizedFilterDegradation:
    """Smaller Bloom filters degrade gracefully: correctness holds, the
    false-positive rate (cost, not correctness) rises."""

    @pytest.mark.parametrize("bits", [64, 1024])
    def test_detection_guarantee_independent_of_size(self, bits):
        from repro.common.params import SynonymFilterConfig
        from repro.filters import SynonymFilter

        filt = SynonymFilter(SynonymFilterConfig(bits=bits))
        pages = [0x7F00_0000_0000 + i * PAGE_SIZE for i in range(64)]
        for va in pages:
            filt.mark_shared(va)
        assert all(filt.is_synonym_candidate(va) for va in pages)

    def test_smaller_filter_more_false_positives(self):
        from repro.common.params import SynonymFilterConfig
        from repro.common.rng import make_rng
        from repro.filters import SynonymFilter

        rng = make_rng(17)
        shared = [rng.randrange(0, 1 << 47) & ~0xFFF for _ in range(200)]
        probes = [rng.randrange(0, 1 << 47) & ~0x7 for _ in range(5000)]
        rates = {}
        for bits in (128, 1024):
            filt = SynonymFilter(SynonymFilterConfig(bits=bits))
            for va in shared:
                filt.mark_shared(va)
            rates[bits] = sum(filt.is_synonym_candidate(va)
                              for va in probes) / len(probes)
        assert rates[128] >= rates[1024]
