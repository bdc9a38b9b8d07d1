"""Tests for the directory MESI engine, including the synonym argument."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.coherence import (
    CoherenceEngine,
    STATE_E,
    STATE_I,
    STATE_M,
    STATE_S,
)
from repro.common.address import physical_block_key, virtual_block_key
from repro.common.rng import make_rng


@pytest.fixture()
def engine():
    return CoherenceEngine(cores=4)


class TestBasicTransitions:
    def test_first_load_exclusive(self, engine):
        engine.load(0, 0x100)
        assert engine.state_of(0, 0x100) == STATE_E

    def test_second_load_shares(self, engine):
        engine.load(0, 0x100)
        engine.load(1, 0x100)
        assert engine.state_of(1, 0x100) == STATE_S
        # Core 0 stays readable (E is compatible with a new S reader
        # after directory downgrade paths; here it had no M data).
        assert engine.state_of(0, 0x100) in (STATE_E, STATE_S)

    def test_store_modifies(self, engine):
        engine.store(0, 0x100)
        assert engine.state_of(0, 0x100) == STATE_M
        assert engine.directory_state(0x100) == STATE_M

    def test_silent_e_to_m_upgrade(self, engine):
        engine.load(0, 0x100)
        before = engine.stats["messages"]
        engine.store(0, 0x100)
        assert engine.state_of(0, 0x100) == STATE_M
        assert engine.stats["messages"] == before  # no traffic
        assert engine.stats["silent_upgrades"] == 1

    def test_store_invalidates_sharers(self, engine):
        engine.load(0, 0x100)
        engine.load(1, 0x100)
        engine.load(2, 0x100)
        engine.store(3, 0x100)
        for core in (0, 1, 2):
            assert engine.state_of(core, 0x100) == STATE_I
        assert engine.state_of(3, 0x100) == STATE_M

    def test_load_forwards_from_owner(self, engine):
        v = engine.store(0, 0x100)
        seen = engine.load(1, 0x100)
        assert seen == v                     # reader sees the write
        assert engine.state_of(0, 0x100) == STATE_S  # owner downgraded

    def test_store_recalls_owner(self, engine):
        v0 = engine.store(0, 0x100)
        v1 = engine.store(1, 0x100)
        assert v1 == v0 + 1                  # version chain continues
        assert engine.state_of(0, 0x100) == STATE_I

    def test_eviction_of_modified_writes_back(self, engine):
        v = engine.store(0, 0x100)
        engine.evict(0, 0x100)
        assert engine.stats["writebacks"] == 1
        assert engine.load(1, 0x100) == v    # data survived via PutM

    def test_eviction_of_shared_is_silent_data_wise(self, engine):
        engine.load(0, 0x100)
        engine.load(1, 0x100)
        engine.evict(0, 0x100)
        assert engine.state_of(0, 0x100) == STATE_I
        assert engine.state_of(1, 0x100) == STATE_S

    def test_evict_invalid_is_noop(self, engine):
        engine.evict(0, 0x999)
        assert engine.stats["messages"] == 0

    def test_hits_counted(self, engine):
        engine.load(0, 0x100)
        engine.load(0, 0x100)
        engine.store(0, 0x200)
        engine.store(0, 0x200)
        assert engine.stats["load_hits"] == 1
        assert engine.stats["store_hits"] == 1

    def test_requires_a_core(self):
        with pytest.raises(ValueError):
            CoherenceEngine(cores=0)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),       # core
                              st.integers(0, 20),      # block
                              st.sampled_from(["load", "store", "evict"])),
                    min_size=1, max_size=300))
    def test_random_interleavings_never_violate(self, ops):
        engine = CoherenceEngine(cores=4)
        for core, block, op in ops:
            getattr(engine, op)(core, block)
        engine.check_invariants()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_readers_always_see_last_write(self, seed):
        """Data-value invariant under random traffic."""
        engine = CoherenceEngine(cores=4)
        rng = make_rng(seed)
        last_version = {}
        for _ in range(200):
            core = rng.randrange(4)
            block = rng.randrange(8)
            action = rng.random()
            if action < 0.4:
                last_version[block] = engine.store(core, block)
            elif action < 0.8:
                seen = engine.load(core, block)
                assert seen == last_version.get(block, 0)
            else:
                engine.evict(core, block)
        engine.check_invariants()


class TestSynonymCoherenceArgument:
    """The paper's Section III-A claim, against the real protocol."""

    def test_single_name_keeps_synonyms_coherent(self):
        """Two processes write a shared page through different VAs; the
        hybrid design names the block by its PA, so the protocol sees one
        block and readers always see the latest write."""
        engine = CoherenceEngine(cores=2)
        pa = 0x5000
        single_name = physical_block_key(pa)
        v1 = engine.store(0, single_name)    # process A writes via VA1
        assert engine.load(1, single_name) == v1  # process B reads via VA2
        v2 = engine.store(1, single_name)
        assert engine.load(0, single_name) == v2
        engine.check_invariants()

    def test_two_names_break_coherence(self):
        """Counterfactual: if synonyms were cached under their own VAs,
        the protocol would treat them as unrelated blocks and a reader
        could see stale data — the classic synonym bug."""
        engine = CoherenceEngine(cores=2)
        name_a = virtual_block_key(1, 0x7000_0000)  # VA in process A
        name_b = virtual_block_key(2, 0x9000_0000)  # synonym VA in B
        engine.store(0, name_a)              # A writes "the" data
        stale = engine.load(1, name_b)       # B reads via its own name
        assert stale == 0                    # ...and misses the update
