"""Tests for the trace-analysis module, including calibration checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.osmodel import Kernel
from repro.sim import lay_out
from repro.workloads import spec
from repro.workloads.analysis import (TraceAnalyzer, analyze,
                                      estimate_tlb_hit_rate)
from repro.workloads.trace import TraceRecord


def record(va, asid=1, write=False):
    return TraceRecord(asid=asid, core=0, va=va, is_write=write, gap=2)


class TestTraceAnalyzer:
    def test_counts(self):
        profile = analyze([record(0x1000), record(0x1008, write=True),
                           record(0x2000)])
        assert profile.accesses == 3
        assert profile.write_fraction == pytest.approx(1 / 3)
        assert profile.distinct_pages == 2
        assert profile.distinct_blocks == 2

    def test_blocks_finer_than_pages(self):
        profile = analyze([record(0x1000), record(0x1040), record(0x1080)])
        assert profile.distinct_pages == 1
        assert profile.distinct_blocks == 3

    def test_asids_separate_pages(self):
        profile = analyze([record(0x1000, asid=1), record(0x1000, asid=2)])
        assert profile.distinct_pages == 2
        assert profile.per_asid_accesses == {1: 1, 2: 1}

    def test_coverage_small_footprint_saturates(self):
        trace = [record(0x1000)] * 99 + [record(0x2000)]
        profile = analyze(trace)
        # Two pages: any capacity point beyond the footprint covers all.
        assert profile.coverage(64) == pytest.approx(1.0)

    def test_coverage_hot_page_dominates(self):
        trace = ([record(0x1000)] * 100
                 + [record(0x1000 + i * 4096) for i in range(1, 101)])
        profile = analyze(trace)
        # Top-64 pages: the hot page (100 accesses) + 63 singletons.
        assert profile.coverage(64) == pytest.approx(163 / 200)
        assert profile.coverage(4096) == pytest.approx(1.0)

    def test_coverage_monotone(self):
        kernel = Kernel(SystemConfig())
        w = lay_out("xalancbmk", kernel)
        profile = analyze(w.trace(5000))
        shares = [s for _n, s in profile.page_coverage]
        assert shares == sorted(shares)
        assert shares[-1] == pytest.approx(1.0)

    def test_reuse_histogram_binning(self):
        # Page revisited after exactly 1 and then 3 intervening accesses.
        trace = [record(0x1000), record(0x1000),
                 record(0x2000), record(0x3000), record(0x1000)]
        profile = analyze(trace)
        assert profile.reuse_time_histogram.get("1-1") == 1
        assert sum(profile.reuse_time_histogram.values()) == 2

    def test_empty_trace(self):
        profile = analyze([])
        assert profile.accesses == 0
        assert profile.write_fraction == 0.0
        assert profile.coverage(1024) == 0.0

    def test_footprint_bytes(self):
        profile = analyze([record(0x1000), record(0x5000)])
        assert profile.footprint_bytes() == 2 * 4096

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 30),
                    min_size=1, max_size=200))
    def test_invariants_property(self, vas):
        profile = analyze([record(va & ~7) for va in vas])
        assert profile.accesses == len(vas)
        assert profile.distinct_pages <= profile.distinct_blocks <= len(vas)
        assert 0.0 <= profile.coverage(64) <= 1.0


class TestCalibrationChecks:
    """The analyzer as an oracle for the workload catalog."""

    def test_gups_page_working_set_defeats_tlbs(self):
        kernel = Kernel(SystemConfig())
        w = lay_out("gups", kernel)
        profile = analyze(w.trace(20_000))
        # A 1088-entry TLB captures little beyond the stack traffic.
        assert estimate_tlb_hit_rate(profile, 1024) < 0.5

    def test_omnetpp_within_large_tlb_reach(self):
        kernel = Kernel(SystemConfig())
        w = lay_out("omnetpp", kernel)
        profile = analyze(w.trace(20_000))
        assert estimate_tlb_hit_rate(profile, 16384) > 0.95

    def test_estimate_upper_bounds_simulated_hit_rate(self):
        """Perfect-retention coverage ≥ measured LRU TLB hit rate."""
        from repro.core import ConventionalMmu
        from repro.sim import Simulator

        config = SystemConfig()
        kernel = Kernel(config)
        w = lay_out("xalancbmk", kernel)
        analyzer = TraceAnalyzer()
        for r in w.trace(15_000):
            analyzer.feed(r)
        profile = analyzer.profile()

        kernel2 = Kernel(config)
        w2 = lay_out("xalancbmk", kernel2)
        mmu = ConventionalMmu(kernel2, config)
        Simulator(mmu).run(w2, accesses=15_000)
        tlb = mmu.tlbs[0]
        measured = 1 - tlb.misses() / tlb.stats["lookups"]
        estimate = estimate_tlb_hit_rate(profile, 1024 + 64)
        assert measured <= estimate + 0.05

    def test_write_fractions_match_specs(self):
        for name in ("gups", "omnetpp"):
            kernel = Kernel(SystemConfig())
            w = lay_out(name, kernel)
            profile = analyze(w.trace(8000))
            assert profile.write_fraction == pytest.approx(
                spec(name).write_fraction, abs=0.05)
