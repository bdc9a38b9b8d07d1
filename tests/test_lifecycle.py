"""Tests for process teardown, ASID allocation, and resource conservation."""

import pytest

from repro.common.address import (
    PAGE_SIZE,
    physical_block_key,
    virtual_block_key,
)
from repro.common.params import SystemConfig
from repro.core import AccessOutcome, ConventionalMmu, HybridMmu
from repro.osmodel import Kernel

MB = 1024 * 1024


class TestDestroyProcess:
    def test_frames_fully_reclaimed(self):
        kernel = Kernel(SystemConfig())
        before = kernel.frames.free_frames()
        p = kernel.create_process("p")
        for policy in ("eager", "demand"):
            vma = kernel.mmap(p, 1 * MB, policy=policy)
            for offset in range(0, vma.length, 4 * PAGE_SIZE):
                kernel.translate(p.asid, vma.vbase + offset)
        kernel.destroy_process(p)
        assert kernel.frames.free_frames() == before

    def test_segments_removed(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        kernel.mmap(p, 2 * MB, policy="eager")
        assert kernel.segment_table.live_count() >= 1
        kernel.destroy_process(p)
        assert kernel.segment_table.live_count() == 0

    def test_process_unregistered(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        kernel.destroy_process(p)
        with pytest.raises(KeyError):
            kernel.process(p.asid)

    def test_caches_hold_no_stale_data_after_destroy(self):
        """A process created after another's teardown gets a fresh ASID
        and must not see the old process's cached lines."""
        config = SystemConfig()
        kernel = Kernel(config)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * PAGE_SIZE, policy="demand")
        mmu.access(0, p.asid, vma.vbase, True)
        old_asid = p.asid
        kernel.destroy_process(p)

        q = kernel.create_process("q")
        assert q.asid != old_asid  # never reused
        vma_q = kernel.mmap(q, 8 * PAGE_SIZE, policy="demand")
        out = AccessOutcome._make(mmu.access(0, q.asid, vma_q.vbase, False))
        assert out.translated_pa == kernel.translate(q.asid, vma_q.vbase).pa
        # The old mapping's lines were flushed during teardown, so even
        # at identical VAs the new process misses and refetches.
        stale_key = virtual_block_key(old_asid, vma.vbase)
        line = mmu.caches.probe_line(0, stale_key)
        if vma.vbase != vma_q.vbase:
            assert line is None


class TestMunmap:
    @pytest.mark.parametrize("shared", [False, True],
                             ids=["private", "shared"])
    @pytest.mark.parametrize("mmu_class", [ConventionalMmu, HybridMmu])
    def test_flushes_without_faulting_back_in(self, mmu_class, shared):
        """Flush listeners translate the dying pages; munmap must let
        them do so before the mappings go, not fault fresh frames in."""
        config = SystemConfig()
        kernel = Kernel(config)
        mmu = mmu_class(kernel, config)
        a, b = kernel.create_process("a"), kernel.create_process("b")
        if shared:
            vma = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)[a.asid]
        else:
            vma = kernel.mmap(a, 4 * PAGE_SIZE, policy="demand")
        pages = range(vma.vbase, vma.vlimit, PAGE_SIZE)
        frames = [AccessOutcome._make(mmu.access(0, a.asid, va, True)).translated_pa
                  for va in pages]
        faults = ("demand_faults", "shared_first_touches")
        faults_before = [kernel.stats[name] for name in faults]

        kernel.munmap(a, vma)

        assert [kernel.stats[name] for name in faults] == faults_before
        assert not any(a.page_table.is_mapped(va) for va in pages)
        resident = set(mmu.caches.llc.resident_keys())
        for level in mmu.caches.l1 + mmu.caches.l2:
            resident.update(level.resident_keys())
        for va, pa in zip(pages, frames):
            names = {physical_block_key(pa) + i for i in range(64)}
            names |= {virtual_block_key(a.asid, va) + i for i in range(64)}
            assert not names & resident


class TestAsidAllocation:
    def test_retired_asids_never_reused(self):
        kernel = Kernel(SystemConfig())
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.destroy_process(a)
        kernel.destroy_process(b)
        fresh = [kernel.create_process(name).asid for name in ("c", "d")]
        assert fresh == [b.asid + 1, b.asid + 2]

    def test_exhaustion_detected(self):
        kernel = Kernel(SystemConfig())
        kernel._next_asid = 0xFFFF
        kernel.create_process("last")  # uses 0xFFFF
        with pytest.raises(RuntimeError, match="ASID space exhausted"):
            kernel.create_process("one-too-many")

    def test_shared_backing_survives_one_participant_exit(self):
        kernel = Kernel(SystemConfig())
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vmas = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)
        va_b = vmas[b.asid].vbase
        expected = kernel.translate(b.asid, va_b).pa
        kernel.destroy_process(a)
        # b still reads the shared region at the same physical address.
        assert kernel.translate(b.asid, va_b).pa == expected
