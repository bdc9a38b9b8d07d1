"""Tests for the generic configuration sweep utilities."""

import pytest

from repro.common.params import SystemConfig
from repro.sim.sweep import sweep_grid, with_overrides

FAST = dict(accesses=1200, warmup=400)


class TestWithOverrides:
    def test_top_level_field(self):
        config = with_overrides(SystemConfig(), {"cores": 4})
        assert config.cores == 4

    def test_nested_field(self):
        config = with_overrides(SystemConfig(),
                                {"llc.size_bytes": 8 * 1024 * 1024})
        assert config.llc.size_bytes == 8 * 1024 * 1024
        assert config.llc.ways == 16  # siblings preserved

    def test_deeply_nested(self):
        config = with_overrides(SystemConfig(),
                                {"segments.index_cache_size": 65536})
        assert config.segments.index_cache_size == 65536

    def test_multiple_overrides(self):
        config = with_overrides(SystemConfig(), {
            "cores": 2,
            "delayed_tlb.entries": 4096,
        })
        assert config.cores == 2
        assert config.delayed_tlb.entries == 4096

    def test_original_untouched(self):
        base = SystemConfig()
        with_overrides(base, {"cores": 8})
        assert base.cores == 1

    def test_unknown_path_fails_loudly(self):
        with pytest.raises(AttributeError, match="no field"):
            with_overrides(SystemConfig(), {"llc.bogus_field": 1})
        with pytest.raises(AttributeError):
            with_overrides(SystemConfig(), {"nonexistent.size": 1})


def sweep_field(workload, mmu, field_path, values):
    """``{value: result}`` of a one-field ``sweep_grid``."""
    rows = sweep_grid(workload, mmu, {field_path: values}, **FAST)
    return {row["params"][field_path]: row["result"] for row in rows}


class TestSweepConfig:
    def test_sweep_produces_per_value_results(self):
        results = sweep_field("stream", "hybrid_tlb",
                              "delayed_tlb.entries", [512, 2048])
        assert set(results) == {512, 2048}
        for result in results.values():
            assert result.ipc > 0

    def test_sweep_actually_varies_the_field(self):
        results = sweep_field("gups", "hybrid_tlb",
                              "delayed_tlb.entries", [512, 8192])
        misses = {v: r.counter("delayed_tlb", "misses")
                  for v, r in results.items()}
        assert misses[8192] <= misses[512]


class TestSweepGrid:
    def test_cartesian_product(self):
        rows = sweep_grid("stream", "baseline", {
            "llc.size_bytes": [1 * 1024 * 1024, 2 * 1024 * 1024],
            "cores": [1],
        }, **FAST)
        assert len(rows) == 2
        assert {r["params"]["llc.size_bytes"] for r in rows} == {
            1 * 1024 * 1024, 2 * 1024 * 1024}
        for row in rows:
            assert row["result"].cycles > 0
