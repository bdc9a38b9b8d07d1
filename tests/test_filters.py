"""Tests for Bloom filters, the paper's hashes, and the synonym filter.

The load-bearing property throughout: **no false negatives** — every page
the OS marks shared must be reported as a synonym candidate, or the
hybrid design is incorrect (a synonym would be cached under ASID+VA).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import PAGE_SIZE, VA_MASK, page_base
from repro.common.params import SynonymFilterConfig
from repro.filters import (
    BloomFilter,
    SynonymFilter,
    VirtualizedSynonymFilter,
    make_hash_pair,
    partition_hash,
    xor_fold,
)

vas = st.integers(min_value=0, max_value=VA_MASK)


def filter_state(f: SynonymFilter):
    """Everything the OS-side maintenance of a synonym filter changes."""
    hist = f.occupancy_hist
    return (f.state_bits(), f.fine.inserted, f.coarse.inserted,
            dict(f.stats.counts), hist.counts, hist.count, hist.total)


class TestXorFold:
    def test_small_value_unchanged(self):
        assert xor_fold(0b10110) == 0b10110

    def test_fold_range(self):
        for v in (0, 1, 0xFFFF_FFFF, 123456789):
            assert 0 <= xor_fold(v) < 32

    def test_fold_is_xor_of_chunks(self):
        v = (0b00111 << 10) | (0b01010 << 5) | 0b00001
        assert xor_fold(v) == 0b00111 ^ 0b01010 ^ 0b00001

    @given(st.integers(min_value=0, max_value=2 ** 60))
    def test_fold_bounded(self, v):
        assert 0 <= xor_fold(v) < 32


class TestPartitionHash:
    def test_index_is_10_bits(self):
        for trimmed in (0, 1, 0xFFFF, 0xABCDEF):
            assert 0 <= partition_hash(trimmed, 24, 1, 2) < 1024

    def test_low_bits_affect_low_fold(self):
        a = partition_hash(0b0001, 24, 1, 2)
        b = partition_hash(0b0010, 24, 1, 2)
        assert a != b

    def test_split_ratios_differ(self):
        # The two hash functions must actually hash differently.
        trimmed = 0b1010101010101010101010
        assert (partition_hash(trimmed, 22, 1, 2)
                != partition_hash(trimmed, 22, 1, 3)) or True  # may collide
        # ...but over many values they must not be identical everywhere:
        diffs = sum(
            partition_hash(v, 22, 1, 2) != partition_hash(v, 22, 1, 3)
            for v in range(1, 2000)
        )
        assert diffs > 0


class TestMakeHashPair:
    def test_pair_covers_granularity(self):
        h_even, h_skew = make_hash_pair(15)
        va = 0x7F12_3456_7000
        # Addresses in the same 32 KB region hash identically.
        assert h_even(va) == h_even(va + 0x7FFF - (va & 0x7FFF))
        assert h_skew(va) == h_skew(va | 0x7000)

    def test_distinct_regions_usually_distinct(self):
        h_even, _ = make_hash_pair(15)
        indexes = {h_even(i << 15) for i in range(200)}
        assert len(indexes) > 20  # far from degenerate


class TestBloomFilter:
    def _filter(self, bits=1024):
        return BloomFilter(bits, make_hash_pair(15))

    def test_empty_filter_rejects(self):
        f = self._filter()
        assert not f.query(0x1234_5000)

    def test_no_false_negatives_basic(self):
        f = self._filter()
        keys = [0x1000_0000 + i * 0x8000 for i in range(50)]
        f.insert_all(keys)
        assert all(f.query(k) for k in keys)

    @settings(max_examples=50)
    @given(st.lists(vas, min_size=1, max_size=100))
    def test_no_false_negatives_property(self, keys):
        f = self._filter()
        f.insert_all(keys)
        assert all(f.query(k) for k in keys)

    def test_clear(self):
        f = self._filter()
        f.insert(0x8000)
        f.clear()
        assert not f.query(0x8000)
        assert f.popcount() == 0
        assert f.inserted == 0

    def test_popcount_and_fill_ratio(self):
        f = self._filter()
        assert f.fill_ratio() == 0.0
        f.insert(0x1_0000)
        assert 1 <= f.popcount() <= 2
        assert f.fill_ratio() == f.popcount() / 1024

    def test_union(self):
        a, b = self._filter(), self._filter()
        a.insert(0x10_0000)
        b.insert(0x20_0000)
        a.union_update(b)
        assert a.query(0x10_0000) and a.query(0x20_0000)

    def test_union_size_mismatch(self):
        a = self._filter(1024)
        b = BloomFilter(512, make_hash_pair(15))
        with pytest.raises(ValueError):
            a.union_update(b)

    def test_dump_load_roundtrip(self):
        a, b = self._filter(), self._filter()
        a.insert(0x30_0000)
        b.load_bits(a.dump_bits())
        assert b.query(0x30_0000)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BloomFilter(1000, make_hash_pair(15))

    def test_rejects_no_hashes(self):
        with pytest.raises(ValueError):
            BloomFilter(1024, [])


class TestSynonymFilter:
    def test_unmarked_address_not_candidate_in_fresh_filter(self):
        f = SynonymFilter()
        assert not f.is_synonym_candidate(0x7000_0000)

    def test_marked_page_is_candidate(self):
        f = SynonymFilter()
        f.mark_shared(0x7F00_0000_2000)
        assert f.is_synonym_candidate(0x7F00_0000_2345)

    @settings(max_examples=50)
    @given(st.lists(vas, min_size=1, max_size=60))
    def test_guaranteed_detection_property(self, pages):
        """The correctness guarantee: every marked page is detected."""
        f = SynonymFilter()
        for va in pages:
            f.mark_shared(va)
        for va in pages:
            assert f.is_synonym_candidate(page_base(va))

    def test_mark_range(self):
        f = SynonymFilter()
        f.mark_shared_range(0x5000_0000, 5 * PAGE_SIZE)
        for i in range(5):
            assert f.is_synonym_candidate(0x5000_0000 + i * PAGE_SIZE)

    @pytest.mark.parametrize("start,length", [
        (0x7F00_0000_0000, 64 * PAGE_SIZE),        # aligned
        (0x7F00_0000_0123, 5 * PAGE_SIZE),         # unaligned start
        (0x7F00_0000_0000, 5 * PAGE_SIZE + 100),   # unaligned end
        (0x5000_0FF8, 16),                         # straddles two pages
        (0x5000_0000, 0),                          # empty
        (0x7F00_0000_6000, 4 * PAGE_SIZE),         # straddles a 32 KB grain
        (0x7F00_00FF_E000, 4 * PAGE_SIZE),         # straddles a 16 MB grain
        (0x7F00_0123_4000, 1352 * PAGE_SIZE),      # postgres-sized region
    ])
    def test_range_matches_page_by_page(self, start, length):
        """One range call leaves what marking each page leaves."""
        bulk, single = SynonymFilter(), SynonymFilter()
        bulk.mark_shared_range(start, length)
        for va in range(page_base(start), start + length, PAGE_SIZE):
            single.mark_shared(va)
        assert filter_state(bulk) == filter_state(single)

    def test_distant_private_region_not_flagged(self):
        """The Linux-like VA split keeps heap and mmap hash-distinct."""
        f = SynonymFilter()
        f.mark_shared_range(0x7F00_0000_0000, 64 * PAGE_SIZE)
        false_positives = sum(
            f.is_synonym_candidate(0x1000_0000 + i * PAGE_SIZE)
            for i in range(512)
        )
        assert false_positives / 512 < 0.05

    def test_rebuild_drops_stale_entries(self):
        f = SynonymFilter()
        f.mark_shared(0x7F00_1111_0000)
        f.mark_shared(0x7F00_2222_0000)
        f.rebuild([0x7F00_1111_0000])
        assert f.is_synonym_candidate(0x7F00_1111_0000)

    def test_state_bits_roundtrip(self):
        a = SynonymFilter()
        a.mark_shared(0x7F00_0000_4000)
        fine, coarse = a.state_bits()
        b = SynonymFilter()
        b.load_state_bits(fine, coarse)
        assert b.is_synonym_candidate(0x7F00_0000_4000)

    def test_stats_counted(self):
        f = SynonymFilter()
        f.mark_shared(0x7F00_0000_0000)
        f.is_synonym_candidate(0x7F00_0000_0000)
        f.is_synonym_candidate(0x1000)
        assert f.stats["lookups"] == 2
        assert f.stats["candidates"] >= 1
        assert f.stats["pages_marked"] == 1


class TestVirtualizedSynonymFilter:
    def test_guest_or_host_triggers(self):
        v = VirtualizedSynonymFilter()
        v.mark_guest_shared(0x7F00_0000_0000)
        v.mark_host_shared(0x7F11_0000_0000)
        assert v.is_synonym_candidate(0x7F00_0000_0000)
        assert v.is_synonym_candidate(0x7F11_0000_0000)
        assert not v.is_synonym_candidate(0x1000_0000)

    def test_guest_switch_preserves_host(self):
        v = VirtualizedSynonymFilter()
        v.mark_host_shared(0x7F11_0000_0000)
        empty = SynonymFilter(SynonymFilterConfig())
        fine, coarse = empty.state_bits()
        v.switch_guest_process(fine, coarse)
        assert v.is_synonym_candidate(0x7F11_0000_0000)

    def test_vm_switch_preserves_guest(self):
        v = VirtualizedSynonymFilter()
        v.mark_guest_shared(0x7F00_0000_0000)
        v.switch_vm(0, 0)
        assert v.is_synonym_candidate(0x7F00_0000_0000)
