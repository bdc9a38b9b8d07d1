"""Tests for cache lines, the set-associative cache, and the hierarchy."""

import dataclasses
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CacheHierarchy,
    CacheLine,
    PERM_READ,
    SetAssociativeCache,
    STATE_MODIFIED,
)
from repro.common.address import physical_block_key, virtual_block_key
from repro.common.params import CacheConfig, SystemConfig


class TestCacheLine:
    def test_synonym_bit_follows_namespace(self):
        assert CacheLine(physical_block_key(0x1000)).is_synonym
        assert not CacheLine(virtual_block_key(1, 0x1000)).is_synonym


class TestSetAssociativeCache:
    def _cache(self, size=4096, ways=4, latency=2):
        return SetAssociativeCache(CacheConfig(size, ways, latency))

    def test_miss_then_hit(self):
        c = self._cache()
        assert c.lookup(100) is None
        c.insert(100)
        assert c.lookup(100) is not None

    def test_write_sets_dirty(self):
        c = self._cache()
        c.insert(5)
        line = CacheLine.unpack(5, c.lookup(5, is_write=True))
        assert line.dirty

    def test_lru_eviction(self):
        c = self._cache(size=128, ways=2)  # one set
        c.insert(0)
        c.insert(1)
        c.lookup(0)
        victim = c.insert(2)
        assert victim.key == 1

    def test_eviction_callback_sees_victim(self):
        c = self._cache(size=128, ways=2)
        seen = []
        c.on_eviction(lambda key, meta: seen.append(CacheLine.unpack(key, meta)))
        c.insert(0)
        c.insert(1)
        c.insert(2)
        assert [v.key for v in seen] == [0]

    def test_writeback_counted(self):
        c = self._cache(size=64, ways=1)  # a single one-line set
        c.insert(0, dirty=True)
        c.insert(1)
        assert c.stats["writebacks"] == 1

    def test_invalidate(self):
        c = self._cache()
        c.insert(9)
        assert CacheLine.unpack(9, c.invalidate(9)) == CacheLine(9)
        assert c.invalidate(9) is None

    def test_update_permissions(self):
        c = self._cache()
        c.insert(3)
        assert c.update_permissions(3, PERM_READ)
        assert c.probe(3).permissions == PERM_READ
        assert not c.update_permissions(999, PERM_READ)

    def test_resident_keys(self):
        c = self._cache()
        c.insert(1)
        c.insert(2)
        assert sorted(c.resident_keys()) == [1, 2]

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheConfig(192, 1, 1))

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=4000), max_size=400))
    def test_capacity_invariant(self, keys):
        c = self._cache(size=1024, ways=4)  # 16 lines
        for k in keys:
            c.insert(k)
        assert c.occupancy() <= 16
        # Hit after insert unless evicted; most recently inserted always hit.
        if keys:
            assert c.probe(keys[-1]) is not None


def small_config(cores=2):
    return dataclasses.replace(
        SystemConfig(),
        cores=cores,
        l1=CacheConfig(1024, 2, 2),
        l2=CacheConfig(4096, 4, 6),
        llc=CacheConfig(16384, 8, 27),
    )


class TestCacheHierarchy:
    def test_fill_path_and_hit_levels(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0x4000)
        first_level, _, _ = h.access(0, key, is_write=False)
        assert first_level == "memory"
        second_level, _, _ = h.access(0, key, is_write=False)
        assert second_level == "l1"

    def test_latency_accumulates_with_depth(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0x4000)
        _, miss_cycles, _ = h.access(0, key, False)
        _, hit_cycles, _ = h.access(0, key, False)
        assert miss_cycles == 2 + 6 + 27
        assert hit_cycles == 2

    def test_cross_core_llc_sharing(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0x8000)
        h.access(0, key, False)
        hit_level, _, _ = h.access(1, key, False)
        assert hit_level == "llc"

    def test_write_invalidates_remote_private_copies(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0x8000)
        h.access(0, key, False)
        h.access(1, key, False)
        h.access(0, key, True)  # core 0 writes
        assert h.l1[1].probe(key) is None
        assert h.l2[1].probe(key) is None
        assert h.stats["coherence_invalidations"] >= 1

    def test_modified_state_set_on_write(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0xC000)
        h.access(0, key, True)
        assert h.l1[0].probe(key).state == STATE_MODIFIED

    def test_inclusive_back_invalidation(self):
        h = CacheHierarchy(small_config(cores=1))
        # Fill more blocks than the LLC can hold in one set to force
        # eviction, then check inner copies are gone.
        sets = 16384 // (8 * 64)  # 32 sets
        keys = [virtual_block_key(1, (i * sets) << 6) for i in range(9)]
        for k in keys:
            h.access(0, k, False)
        evicted = [k for k in keys if h.llc.probe(k) is None]
        assert evicted, "LLC set overflow expected"
        for k in evicted:
            assert h.l1[0].probe(k) is None
            assert h.l2[0].probe(k) is None

    def test_flush_blocks_everywhere(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(2, 0x10000)
        h.access(0, key, True)
        h.access(1, key, False)
        dropped = h.flush_blocks([key])
        assert dropped >= 1
        assert h.probe_line(0, key) is None
        assert h.probe_line(1, key) is None

    def test_downgrade_blocks(self):
        h = CacheHierarchy(small_config())
        key = virtual_block_key(1, 0x14000)
        h.access(0, key, False)
        changed = h.downgrade_blocks([key], PERM_READ)
        assert changed == 1
        assert h.l1[0].probe(key).permissions == PERM_READ

    def test_memory_writeback_flag(self):
        h = CacheHierarchy(small_config(cores=1))
        sets = 16384 // (8 * 64)
        keys = [virtual_block_key(1, (i * sets) << 6) for i in range(9)]
        for k in keys:
            h.access(0, k, True)  # dirty everywhere
        assert h.stats["memory_writebacks"] >= 1

    def test_virtual_and_physical_keys_coexist(self):
        h = CacheHierarchy(small_config())
        vkey = virtual_block_key(1, 0x2000)
        pkey = physical_block_key(0x2000)
        h.access(0, vkey, False)
        h.access(0, pkey, False)
        assert h.probe_line(0, vkey) is not None
        assert h.probe_line(0, pkey) is not None
        assert h.probe_line(0, pkey).is_synonym
        assert not h.probe_line(0, vkey).is_synonym


    @pytest.mark.parametrize("cores", [1, 2])
    def test_fills_create_no_tracked_objects(self, cores):
        """Lines and the copy directory are small ints: filling 4,000
        blocks (each read by every core) leaves the garbage collector
        nothing new to track."""
        h = CacheHierarchy(dataclasses.replace(SystemConfig(), cores=cores))
        keys = [virtual_block_key(1, i << 6) for i in range(4001)]
        for core in range(cores):  # first touch of every counter
            h.access(core, keys[-1], False)
        gc.disable()
        try:
            before = len(gc.get_objects())
            for key in keys[:-1]:
                for core in range(cores):
                    h.access(core, key, False)
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert h.stats["llc_misses"] == 4001
        assert after <= before, f"{after - before} new tracked objects"
