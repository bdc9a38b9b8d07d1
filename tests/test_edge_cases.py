"""Edge-case coverage across modules: small configs, boundary values,
error paths, and rarely-exercised interfaces."""

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE
from repro.common.params import (
    CacheConfig,
    SegmentTranslationConfig,
    SystemConfig,
    TlbConfig,
    config_fingerprint,
)
from repro.common.rng import make_rng, zipf_sampler
from repro.core import AccessOutcome, HybridMmu
from repro.exec import Job
from repro.osmodel import Kernel
from repro.sim import Simulator, build_mmu, lay_out
from repro.tlb import SetAssociativeTlb, TlbEntry
from repro.virt.twod_walker import NestedTlb

MB = 1024 * 1024


class TestZipfSampler:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            zipf_sampler(make_rng(1), 0)

    def test_single_item(self):
        sample = zipf_sampler(make_rng(1), 1)
        assert all(sample() == 0 for _ in range(10))

    def test_rank_zero_most_popular(self):
        sample = zipf_sampler(make_rng(1), 100, theta=1.0)
        from collections import Counter
        counts = Counter(sample() for _ in range(5000))
        assert counts[0] == max(counts.values())

    def test_theta_zero_near_uniform(self):
        sample = zipf_sampler(make_rng(1), 10, theta=0.0)
        from collections import Counter
        counts = Counter(sample() for _ in range(10_000))
        assert max(counts.values()) < 2.0 * min(counts.values())


class TestRngStreams:
    def test_streams_decorrelated(self):
        a = make_rng(42, "alpha")
        b = make_rng(42, "beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_same_stream_reproducible(self):
        assert (make_rng(42, "x").random()
                == make_rng(42, "x").random())


class TestTinyStructures:
    def test_direct_mapped_tlb(self):
        tlb = SetAssociativeTlb(TlbConfig(4, 1, 1))  # direct-mapped
        for vpn in range(8):
            tlb.fill(TlbEntry(vpn << 4, vpn, True))
        assert tlb.occupancy() <= 4

    def test_fully_associative_tlb(self):
        tlb = SetAssociativeTlb(TlbConfig(4, 4, 1))  # one set
        for vpn in range(6):
            tlb.fill(TlbEntry(vpn, vpn, True))
        assert tlb.occupancy() == 4
        # Strict LRU: the two oldest are gone.
        assert tlb.probe(0) is None and tlb.probe(1) is None

    def test_one_line_cache_hierarchy(self):
        config = dataclasses.replace(
            SystemConfig(),
            l1=CacheConfig(64, 1, 1),
            l2=CacheConfig(128, 1, 2),
            llc=CacheConfig(256, 1, 3),
        )
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * PAGE_SIZE, policy="eager")
        mmu = HybridMmu(kernel, config)
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.translated_pa == kernel.translate(p.asid, vma.vbase).pa


class TestNestedTlb:
    def test_lru(self):
        tlb = NestedTlb()
        for page in range(1, NestedTlb.ENTRIES + 1):
            tlb.fill(page, 100 + page)
        assert tlb.lookup(1) == 101                 # refresh
        tlb.fill(NestedTlb.ENTRIES + 1, 0)          # evicts 2
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) == 101

    def test_flush(self):
        tlb = NestedTlb()
        tlb.fill(1, 10)
        tlb.flush()
        assert tlb.lookup(1) is None


class TestHybridVariants:
    def test_index_cache_size_override(self):
        config = SystemConfig(
            segments=SegmentTranslationConfig(index_cache_size=1024))
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * MB, policy="eager")
        mmu = HybridMmu(kernel, config, delayed="segments")
        assert mmu.delayed.translator.index_cache.size_bytes == 1024
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        assert out.translated_pa == kernel.translate(p.asid, vma.vbase).pa
        # The size is part of the machine the result's manifest names.
        result = Simulator(mmu).run(lay_out("stream", kernel), accesses=50)
        assert (result.manifest.config_hash
                != config_fingerprint(SystemConfig()))

    def test_unknown_delayed_engine(self):
        kernel = Kernel(SystemConfig())
        with pytest.raises(ValueError):
            HybridMmu(kernel, delayed="wormhole")

    def test_access_before_any_mapping_faults(self):
        from repro.osmodel import SegmentationViolation

        config = SystemConfig()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        mmu = HybridMmu(kernel, config)
        with pytest.raises(SegmentationViolation):
            mmu.access(0, p.asid, 0xDEAD_0000, False)


class TestSimulatorEdges:
    def test_zero_warmup(self):
        kernel = Kernel(SystemConfig())
        workload = lay_out("stream", kernel)
        mmu = build_mmu("ideal", kernel)
        result = Simulator(mmu).run(workload, accesses=100, warmup=0)
        assert result.accesses == 100

    def test_reset_after_warmup_zeroes_counters(self):
        kernel = Kernel(SystemConfig())
        workload = lay_out("stream", kernel)
        mmu = build_mmu("hybrid_tlb", kernel)
        Simulator(mmu).run(workload, accesses=50, warmup=500,
                           reset_stats_after_warmup=True)
        assert mmu.hybrid_stats["accesses"] == 50

    def test_reset_after_warmup_without_timed_accesses(self):
        """The counters are zeroed once warm-up completes, also when no
        timed access follows it."""
        result = Job(workload="stream", mmu="baseline", accesses=0,
                     warmup=100, seed=42, reset_stats_after_warmup=True).run()
        assert result.stats["cache_hierarchy"].get("accesses", 0) == 0
        assert result.accesses == 0

    def test_single_access_simulation(self):
        kernel = Kernel(SystemConfig())
        workload = lay_out("gups", kernel)
        mmu = build_mmu("baseline", kernel)
        result = Simulator(mmu).run(workload, accesses=1)
        assert result.accesses == 1
        assert result.cycles > 0


class TestEnigmaSharedWindows:
    def test_distinct_shared_regions_distinct_namespaces(self):
        from repro.core.prior import EnigmaMmu

        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        shared1 = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)
        shared2 = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)
        mmu = EnigmaMmu(kernel, config)
        ns1 = mmu._intermediate(a.asid, shared1[a.asid].vbase)[0]
        ns2 = mmu._intermediate(a.asid, shared2[a.asid].vbase)[0]
        assert ns1 != ns2


class TestKernelMiscellany:
    def test_index_tree_rebuild_counted(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        kernel.mmap(p, MB, policy="eager")
        kernel.current_index_tree()
        rebuilds = kernel.stats["index_tree_rebuilds"]
        kernel.current_index_tree()  # unchanged: no rebuild
        assert kernel.stats["index_tree_rebuilds"] == rebuilds
        kernel.mmap(p, MB, policy="eager")
        kernel.frames.alloc_frame()
        kernel.mmap(p, MB, policy="eager")
        kernel.current_index_tree()
        assert kernel.stats["index_tree_rebuilds"] > rebuilds

    def test_multiple_listeners_all_called(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, PAGE_SIZE, policy="demand")
        kernel.translate(p.asid, vma.vbase)
        calls = []
        kernel.on_shootdown(lambda a, v: calls.append("one"))
        kernel.on_shootdown(lambda a, v: calls.append("two"))
        kernel.shootdown_page(p.asid, vma.vbase)
        assert calls == ["one", "two"]

    def test_change_permissions_skips_unmapped(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * PAGE_SIZE, policy="demand")
        # Nothing mapped yet: must not raise.
        kernel.change_permissions(p, vma.vbase, vma.length, 0x1)
