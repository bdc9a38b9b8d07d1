"""Tests for pattern primitives, workload specs, and the catalog."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.common.rng import make_rng
from repro.osmodel import Kernel
from repro.workloads import (
    FIG4_WORKLOADS,
    SYNONYM_WORKLOADS,
    TABLE3_WORKLOADS,
    LaidOutWorkload,
    all_specs,
    build_pattern,
    names,
    spec,
)

MB = 1024 * 1024


class TestPatterns:
    @pytest.mark.parametrize("kind", ["sequential", "strided", "random",
                                      "zipf", "chase"])
    def test_offsets_in_bounds(self, kind):
        gen = build_pattern(kind, make_rng(1), length=1 * MB)
        for _ in range(500):
            offset = gen()
            assert 0 <= offset < 1 * MB

    @pytest.mark.parametrize("kind", ["sequential", "random", "zipf", "chase"])
    def test_touch_fraction_respected(self, kind):
        gen = build_pattern(kind, make_rng(1), length=1 * MB,
                            touch_fraction=0.25)
        for _ in range(500):
            assert gen() < 0.26 * MB

    def test_sequential_is_monotone_with_wrap(self):
        gen = build_pattern("sequential", make_rng(1), length=4096, stride=64)
        offsets = [gen() for _ in range(64)]
        deltas = [(b - a) % 4096 for a, b in zip(offsets, offsets[1:])]
        assert all(d == 64 for d in deltas)

    def test_zipf_skewed_popularity(self):
        gen = build_pattern("zipf", make_rng(1), length=4 * MB, theta=1.0)
        pages = [gen() >> 12 for _ in range(4000)]
        from collections import Counter
        counts = Counter(pages).most_common()
        top_share = sum(c for _p, c in counts[:10]) / len(pages)
        assert top_share > 0.15  # heavily skewed

    def test_random_covers_region(self):
        gen = build_pattern("random", make_rng(1), length=64 * 4096)
        pages = {gen() >> 12 for _ in range(2000)}
        assert len(pages) > 48  # most pages touched

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_pattern("bogus", make_rng(1), 100)

    @settings(max_examples=20)
    @given(st.sampled_from(["sequential", "random", "zipf", "chase"]),
           st.integers(min_value=4096, max_value=1 << 24))
    def test_bounds_property(self, kind, length):
        gen = build_pattern(kind, make_rng(3), length=length)
        for _ in range(50):
            assert 0 <= gen() < length


class TestCatalog:
    def test_named_groups_resolve(self):
        for group in (FIG4_WORKLOADS, TABLE3_WORKLOADS, SYNONYM_WORKLOADS):
            for name in group:
                assert spec(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            spec("not-a-workload")

    def test_all_specs_consistent(self):
        assert sorted(names()) == sorted(s.name for s in all_specs())

    def test_synonym_specs_have_sharing(self):
        for name in SYNONYM_WORKLOADS:
            s = spec(name)
            assert s.sharing is not None
            assert 0 < s.sharing.area_fraction <= 1
            assert 0 < s.sharing.access_fraction <= 1

    def test_weights_positive(self):
        for s in all_specs():
            assert all(m.weight > 0 for m in s.patterns)

    def test_gap_matches_mem_ratio(self):
        s = spec("gups")
        assert s.gap == round(1 / s.mem_ratio) - 1
        assert s.instructions_for(1000) == 1000 * (1 + s.gap)


class TestLaidOutWorkload:
    def test_private_layout_covers_footprint(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("omnetpp"), kernel)
        total = sum(v.length for v in w.private_vmas[w.processes[0].asid])
        assert total >= spec("omnetpp").footprint_bytes

    def test_trace_deterministic(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("mcf"), kernel, seed=7)
        a = [(r.va, r.is_write) for r in w.trace(200, seed=9)]
        b = [(r.va, r.is_write) for r in w.trace(200, seed=9)]
        assert a == b

    def test_different_seeds_differ(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("mcf"), kernel, seed=7)
        a = [r.va for r in w.trace(100, seed=1)]
        b = [r.va for r in w.trace(100, seed=2)]
        assert a != b

    def test_trace_addresses_mapped(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("xalancbmk"), kernel)
        for record in w.trace(300):
            translation = kernel.translate(record.asid, record.va)
            assert translation.pa is not None

    def test_sharing_layout(self):
        kernel = Kernel(SystemConfig())
        s = spec("postgres")
        w = LaidOutWorkload(s, kernel)
        assert len(w.processes) == s.sharing.processes
        assert w.shared_area_fraction() == pytest.approx(
            s.sharing.area_fraction, rel=0.05)

    def test_shared_access_fraction_approximated(self):
        kernel = Kernel(SystemConfig())
        s = spec("postgres")
        w = LaidOutWorkload(s, kernel)
        hits = 0
        n = 3000
        for record in w.trace(n):
            vma = w.shared_vmas.get(record.asid)
            if vma and vma.vbase <= record.va < vma.vbase + vma.length:
                hits += 1
        assert hits / n == pytest.approx(s.sharing.access_fraction, abs=0.03)

    def test_fragmented_profile_creates_many_segments(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("memcached"), kernel)
        assert w.live_segments() > 32  # exceeds RMM capacity

    def test_single_allocation_few_segments(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("gups"), kernel)
        assert w.live_segments() <= 4

    def test_multiprocess_round_robin(self):
        kernel = Kernel(SystemConfig())
        w = LaidOutWorkload(spec("ferret"), kernel)
        asids = [r.asid for r in w.trace(8)]
        assert len(set(asids[:4])) == 4  # all four processes appear
