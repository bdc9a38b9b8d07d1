"""Coverage of small public accessors and reporting paths."""

from repro.common.params import SystemConfig
from repro.core import HybridMmu
from repro.osmodel import Kernel
from repro.segtrans import ManySegmentTranslator
from repro.sim.report import breakdown_chart

MB = 1024 * 1024


class TestManySegmentAccessors:
    def _translator(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 4 * MB, policy="eager")
        return ManySegmentTranslator(kernel), p, vma

    def test_sc_hit_rate(self):
        ms, p, vma = self._translator()
        ms.translate(p.asid, vma.vbase)
        ms.translate(p.asid, vma.vbase + 64)
        assert 0 < ms.sc_hit_rate() <= 1.0

    def test_sc_hit_rate_without_sc(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 2 * MB, policy="eager")
        ms = ManySegmentTranslator(kernel, use_segment_cache=False)
        ms.translate(p.asid, vma.vbase)
        assert ms.sc_hit_rate() == 0.0

    def test_index_cache_hit_rate(self):
        ms, p, vma = self._translator()
        # Force two full walks through the index cache.
        ms_nosc = ManySegmentTranslator(ms.kernel, use_segment_cache=False)
        ms_nosc.translate(p.asid, vma.vbase)
        ms_nosc.translate(p.asid, vma.vbase + 4096)
        assert 0 <= ms_nosc.index_cache_hit_rate() <= 1.0
        assert ms_nosc.index_cache_hit_rate() > 0  # second walk hit


class TestHierarchyAccessors:
    def test_total_latency_floor(self):
        from repro.cache.hierarchy import CacheHierarchy

        config = SystemConfig()
        h = CacheHierarchy(config)
        assert h.total_latency_floor() == (config.l1.latency
                                           + config.l2.latency
                                           + config.llc.latency)

    def test_tlb_hierarchy_counters(self):
        from repro.common.params import TlbConfig
        from repro.tlb import TlbHierarchy, TlbEntry

        h = TlbHierarchy(TlbConfig(4, 2, 1), TlbConfig(16, 4, 7))
        h.lookup(0x1234)
        assert h.accesses() == 1
        assert h.misses() == 1
        h.fill(TlbEntry(0x1234, 1, True))
        h.lookup(0x1234)
        assert h.accesses() == 2
        assert h.misses() == 1


class TestBreakdownReporting:
    def test_cycle_breakdown_renders(self):
        from repro.sim import run_workload

        result = run_workload("stream", "hybrid_tlb", accesses=800,
                              warmup=200)
        chart = breakdown_chart(result.cycle_breakdown)
        assert "%" in chart
        assert "dram" in chart

    def test_mmu_snapshot_round_trips_counters(self):
        config = SystemConfig()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, MB, policy="eager")
        mmu = HybridMmu(kernel, config)
        mmu.access(0, p.asid, vma.vbase, False)
        snapshot = mmu.snapshot()
        assert snapshot["hybrid"]["accesses"] == 1
        # Snapshot is a copy: further accesses don't mutate it.
        mmu.access(0, p.asid, vma.vbase, False)
        assert snapshot["hybrid"]["accesses"] == 1


class TestStatsSnapshots:
    def test_simulation_result_counter_default(self):
        from repro.sim.results import SimulationResult

        r = SimulationResult("w", "m", 1, 1, 1.0, 1.0, {}, stats={})
        assert r.counter("nope", "nothing") == 0
        assert r.llc_miss_rate() == 0.0
        assert r.tlb_mpki() == 0.0
