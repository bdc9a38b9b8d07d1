"""Configuration defaults must encode Table IV of the paper."""

import dataclasses

import pytest

from repro.common.params import (
    CacheConfig,
    CoreConfig,
    SystemConfig,
    TlbConfig,
    config_from_dict,
)
from repro.obs.manifest import config_fingerprint


class TestTableIvDefaults:
    def setup_method(self):
        self.config = SystemConfig()

    def test_l1_cache(self):
        assert self.config.l1.size_bytes == 32 * 1024
        assert self.config.l1.ways == 4
        assert self.config.l1.block_size == 64

    def test_l2_cache(self):
        assert self.config.l2.size_bytes == 256 * 1024
        assert self.config.l2.ways == 8
        assert self.config.l2.latency == 6

    def test_llc(self):
        assert self.config.llc.size_bytes == 2 * 1024 * 1024
        assert self.config.llc.ways == 16
        assert self.config.llc.latency == 27

    def test_baseline_tlbs(self):
        assert self.config.l1_tlb.entries == 64
        assert self.config.l1_tlb.latency == 1
        assert self.config.l2_tlb.entries == 1024
        assert self.config.l2_tlb.ways == 8
        assert self.config.l2_tlb.latency == 7

    def test_synonym_tlb_is_single_level_64_entry(self):
        assert self.config.synonym_tlb.entries == 64
        assert self.config.synonym_tlb.ways == 4

    def test_delayed_tlb_default_matches_paper_area_argument(self):
        # Same total TLB area as the baseline (Section III-C).
        assert self.config.delayed_tlb.entries == 1024
        assert self.config.delayed_tlb.ways == 8

    def test_synonym_filter_geometry(self):
        f = self.config.synonym_filter
        assert f.bits == 1024
        assert f.fine_grain_shift == 15    # 32 KB
        assert f.coarse_grain_shift == 24  # 16 MB

    def test_segment_structures(self):
        s = self.config.segments
        assert s.segment_table_entries == 2048
        assert s.segment_table_latency == 7
        assert s.index_cache_size == 32 * 1024
        assert s.index_cache_latency == 3
        assert s.segment_cache_entries == 128
        assert s.segment_cache_grain_shift == 21  # 2 MB
        assert s.full_walk_latency == 20

    def test_core_clock(self):
        assert self.config.core.frequency_ghz == pytest.approx(3.4)


class TestConfigValidation:
    def test_cache_size_must_divide(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, latency=1)

    def test_tlb_entries_must_divide_ways(self):
        with pytest.raises(ValueError):
            TlbConfig(entries=100, ways=3, latency=1)

    def test_cache_sets_derived(self):
        cfg = CacheConfig(32 * 1024, 4, 4)
        assert cfg.sets == 128

    def test_with_llc_size(self):
        big = SystemConfig().with_llc_size(8 * 1024 * 1024)
        assert big.llc.size_bytes == 8 * 1024 * 1024
        assert big.l1.size_bytes == 32 * 1024  # untouched

    def test_with_delayed_tlb_entries(self):
        cfg = SystemConfig().with_delayed_tlb_entries(32768)
        assert cfg.delayed_tlb.entries == 32768

    def test_configs_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig().cores = 8

    def test_zero_tlb_ways_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="ways must be >= 1, got 0"):
            TlbConfig(entries=64, ways=0, latency=1)

    def test_zero_cache_ways_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="ways must be >= 1, got 0"):
            CacheConfig(size_bytes=32 * 1024, ways=0, latency=4)

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError, match="cores must be >= 1, got 0"):
            SystemConfig(cores=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency must be >= 0, got -3"):
            CacheConfig(size_bytes=32 * 1024, ways=4, latency=-3)


class TestConfigFromDict:
    """``config_from_dict`` checks what the wire format carries: each
    rejection is a ``ValueError`` naming the field."""

    @pytest.mark.parametrize("doc, reason", [
        ({"l1_tlb": {"entries": 64, "ways": 0, "latency": 1}},
         "l1_tlb: ways must be >= 1, got 0"),
        ({"l2": {"size_bytes": 256 * 1024, "ways": 0, "latency": 6}},
         "l2: ways must be >= 1, got 0"),
        ({"cores": 0}, "cores must be >= 1, got 0"),
        ({"l1": 5}, "l1 must be an object, got 5"),
        ({"cores": "2"}, "cores must be an integer, got '2'"),
        ({"cores": True}, "cores must be an integer, got True"),
        ({"cores": 2.0}, "cores must be an integer, got 2.0"),
        ({"l1": {"size_bytes": 32 * 1024, "ways": 4, "latency": -3}},
         "l1: latency must be >= 0, got -3"),
        ({"core": {"base_cpi": "0.4"}},
         "core: base_cpi must be a number, got '0.4'"),
    ])
    def test_malformed_document_names_the_field(self, doc, reason):
        with pytest.raises(ValueError) as info:
            config_from_dict(doc)
        assert str(info.value) == reason

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="config must be an object"):
            config_from_dict([1, 2])

    def test_valid_documents_keep_their_fingerprints(self):
        for config in (SystemConfig(), SystemConfig(cores=2),
                       SystemConfig(core=CoreConfig(base_cpi=1))):
            back = config_from_dict(config.to_dict())
            assert back == config
            assert config_fingerprint(back) == config_fingerprint(config)
