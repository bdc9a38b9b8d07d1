"""Cross-subsystem property-based tests (hypothesis).

These exercise the invariants the paper's correctness argument rests on:

* single name per physical block (synonym coherence),
* inclusion in the cache hierarchy,
* functional equivalence of every translation path,
* no-false-negative synonym detection under arbitrary OS behaviour.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common.address import PAGE_SIZE
from repro.common.params import CacheConfig, SystemConfig
from repro.common.rng import make_rng
from repro.core import AccessOutcome, ConventionalMmu, HybridMmu
from repro.osmodel import FrameAllocator, IndexTree, Kernel, OsSegmentTable
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import (
    DIRTY,
    EXCLUSIVE,
    MODIFIED,
    PERM_MASK,
    PERM_SHIFT,
    SHARED,
)

MB = 1024 * 1024


def tiny_config(cores=2):
    return dataclasses.replace(
        SystemConfig(),
        cores=cores,
        l1=CacheConfig(512, 2, 2),
        l2=CacheConfig(2048, 4, 6),
        llc=CacheConfig(8192, 8, 27),
    )


class TestInclusionInvariant:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1),        # core
                              st.integers(0, 400),      # block id
                              st.booleans()),            # write
                    min_size=1, max_size=300))
    def test_private_copies_always_in_llc(self, accesses):
        """Inclusive hierarchy: every L1/L2-resident block is LLC-resident."""
        h = CacheHierarchy(tiny_config())
        for core, block, is_write in accesses:
            h.access(core, block << 1, is_write)
        for core in range(2):
            for level in (h.l1[core], h.l2[core]):
                for key in level.resident_keys():
                    assert h.llc.probe(key) is not None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 200),
                              st.booleans()),
                    min_size=1, max_size=200))
    def test_no_block_dirty_in_two_private_caches(self, accesses):
        """Single-writer: a modified block lives in at most one core's L1."""
        h = CacheHierarchy(tiny_config())
        for core, block, is_write in accesses:
            h.access(core, block, is_write)
        from repro.cache.line import STATE_MODIFIED
        for key in set(h.l1[0].resident_keys()) & set(h.l1[1].resident_keys()):
            states = [h.l1[c].probe(key).state for c in range(2)]
            assert states.count(STATE_MODIFIED) <= 1, key


def _reference_access(h, core, key, is_write, permissions):
    """One hierarchy access composed from per-level calls
    (:meth:`SetAssociativeCache.lookup`, ``fill`` and ``mark_modified``):
    the steps :meth:`CacheHierarchy.access` runs in place.  Returns
    ``(hit_level, cycles)``."""
    l1_cycles = h.config.l1.latency
    l2_cycles = l1_cycles + h.config.l2.latency
    llc_cycles = l2_cycles + h.config.llc.latency
    counts = h.stats.counts
    counts["accesses"] += 1
    l1 = h.l1[core]
    meta = l1.lookup(key, is_write)
    if meta is not None:
        if is_write:
            if meta < MODIFIED:
                l1.mark_modified(key)
            h._invalidate_remote_copies(key, core)
        return "l1", l1_cycles
    state = MODIFIED if is_write else SHARED
    l2 = h.l2[core]
    meta = l2.lookup(key, is_write)
    if meta is not None:
        l1.fill(key, meta & (DIRTY | PERM_MASK) | state)
        result = "l2", l2_cycles
    else:
        meta = h.llc.lookup(key, is_write)
        if meta is not None:
            perms = meta & PERM_MASK
            result = "llc", llc_cycles
        else:
            counts["llc_misses"] += 1
            perms = permissions << PERM_SHIFT
            victim = h.llc.fill(key, EXCLUSIVE | perms | is_write)
            if victim is not None and victim & DIRTY:
                counts["memory_writebacks"] += 1
            result = "memory", llc_cycles
        l2.fill(key, perms | state)
        l1.fill(key, perms | state | is_write)
    if is_write:
        h._invalidate_remote_copies(key, core)
    h._copies[key] = h._copies.get(key, 0) | 1 << core
    return result


def _reference_install_permissions(h, core, key, permissions):
    for cache in (h.l1[core], h.l2[core], h.llc):
        cache.set_permissions(key, permissions)


def _hierarchy_state(h):
    """Every set's lines in LRU order, the copy directory and every
    counter, each in its order."""
    caches = [*h.l1, *h.l2, h.llc]
    return ([[list(cache_set.items()) for cache_set in cache._sets]
             for cache in caches],
            list(h._copies.items()),
            [list(group.counts.items()) for group in (h.stats, *(
                cache.stats for cache in caches))])


#: (kind, core, block, write, permissions, blocks flushed or downgraded);
#: blocks are hot, spread past the LLC's capacity, or all in set 0 of
#: every level (so the LLC evicts and back-invalidates).
_HIERARCHY_OPS = st.lists(st.tuples(
    st.sampled_from(("access",) * 6 + ("flush", "downgrade", "install")),
    st.integers(0, 1),
    st.one_of(st.integers(0, 15), st.integers(0, 400),
              st.integers(0, 63).map(lambda block: block << 4)),
    st.booleans(),
    st.integers(0, 3),
    st.integers(1, 8),
), min_size=50, max_size=300)


class TestInPlaceProbe:
    @settings(max_examples=50, deadline=None)
    @given(_HIERARCHY_OPS)
    def test_matches_per_level_composition(self, ops):
        """CacheHierarchy.access and install_permissions probe the sets
        in place; results, LRU order, the copy directory and every
        counter (with its key order) match the per-level composition,
        and the returned line permissions are the closest copy's."""
        h = CacheHierarchy(tiny_config(cores=2))
        ref = CacheHierarchy(tiny_config(cores=2))
        for kind, core, key, is_write, perms, n in ops:
            if kind == "access":
                level, cycles, line_permissions = h.access(core, key,
                                                           is_write, perms)
                assert (level, cycles) == _reference_access(
                    ref, core, key, is_write, perms)
                assert line_permissions == h.closest_permissions(core, key)
            elif kind == "flush":
                assert (h.flush_blocks(range(key, key + n))
                        == ref.flush_blocks(range(key, key + n)))
            elif kind == "downgrade":
                assert (h.downgrade_blocks(range(key, key + n), perms)
                        == ref.downgrade_blocks(range(key, key + n), perms))
            else:
                h.install_permissions(core, key, perms)
                _reference_install_permissions(ref, core, key, perms)
            assert _hierarchy_state(h) == _hierarchy_state(ref)


class TestTranslationEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 6))
    def test_hybrid_and_baseline_agree_under_random_ops(self, seed, regions):
        """Interleaved mmaps + accesses: all MMUs yield identical PAs."""
        rng = make_rng(seed)
        layout = [(rng.choice(["eager", "demand"]),
                   rng.randrange(1, 8) * 64 * 1024) for _ in range(regions)]
        probes = [rng.random() for _ in range(40)]

        def run(mmu_cls, **kw):
            config = dataclasses.replace(SystemConfig(), cores=1)
            kernel = Kernel(config)
            p = kernel.create_process("p")
            vmas = [kernel.mmap(p, size, policy=policy)
                    for policy, size in layout]
            mmu = mmu_cls(kernel, config, **kw)
            pas = []
            truth = []
            for i, frac in enumerate(probes):
                vma = vmas[i % len(vmas)]
                va = vma.vbase + int(frac * (vma.length - 8))
                pas.append(AccessOutcome._make(
                    mmu.access(0, p.asid, va, i % 3 == 0)).translated_pa)
                truth.append(kernel.translate(p.asid, va).pa)
            # Every MMU must agree with its own kernel's functional
            # translation at every step.  (Raw PAs can differ *between*
            # kernels: the segments engine allocates index-tree frames
            # mid-run, shifting later demand allocations.)
            assert pas == truth
            return pas

        base = run(ConventionalMmu)
        # The delayed-TLB hybrid allocates nothing extra, so its physical
        # layout — and hence its PA sequence — matches the baseline's.
        assert run(HybridMmu, delayed="tlb") == base
        run(HybridMmu, delayed="segments")


class TestSynonymSingleName:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_synonym_accesses_share_physical_name(self, seed):
        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 16 * PAGE_SIZE)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        rng = make_rng(seed)
        for _ in range(60):
            offset = rng.randrange(0, 16 * PAGE_SIZE) & ~7
            pa_a = AccessOutcome._make(mmu.access(
                0, a.asid, vmas[a.asid].vbase + offset,
                rng.random() < 0.5)).translated_pa
            pa_b = AccessOutcome._make(mmu.access(
                1, b.asid, vmas[b.asid].vbase + offset,
                rng.random() < 0.5)).translated_pa
            assert pa_a == pa_b
        # And no ASID+VA copies of shared blocks exist anywhere.
        from repro.common.address import virtual_block_key
        for proc, vma in ((a, vmas[a.asid]), (b, vmas[b.asid])):
            for off in range(0, 16 * PAGE_SIZE, 64):
                key = virtual_block_key(proc.asid, vma.vbase + off)
                assert mmu.caches.probe_line(0, key) is None
                assert mmu.caches.probe_line(1, key) is None


class TestFilterSoundnessUnderOsChurn:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 30))
    def test_no_false_negatives_after_share_unshare_rebuild(self, seed, n):
        """Arbitrary share/rebuild sequences never lose a live synonym."""
        kernel = Kernel(SystemConfig())
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        rng = make_rng(seed)
        live_shared = []
        for _ in range(n):
            action = rng.random()
            if action < 0.6 or not live_shared:
                vmas = kernel.mmap_shared([a, b], PAGE_SIZE * rng.randrange(1, 4))
                live_shared.append(vmas[a.asid])
            else:
                a.rebuild_filter()
            for vma in live_shared:
                for off in range(0, vma.length, PAGE_SIZE):
                    assert a.synonym_filter.is_synonym_candidate(
                        vma.vbase + off)


class TestIndexTreeEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 120))
    def test_tree_matches_table_for_random_layouts(self, seed, n_segments):
        rng = make_rng(seed)
        frames = FrameAllocator(512 * MB)
        table = OsSegmentTable(capacity=4096)
        va = 0x1000_0000
        for i in range(n_segments):
            asid = 1 + (i % 3)
            length = PAGE_SIZE * rng.randrange(1, 64)
            table.insert(asid, va, length, rng.randrange(0, 1 << 30) & ~0xFFF)
            va += length + PAGE_SIZE * rng.randrange(1, 8)
        tree = IndexTree(frames)
        tree.build(table)
        for seg in table.segments_sorted():
            probe = seg.vbase + rng.randrange(0, seg.length)
            assert tree.lookup(seg.asid, probe).seg_id == seg.seg_id


class TestFrameConservationUnderKernelChurn:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 15))
    def test_mmap_munmap_cycles_conserve_frames(self, seed, rounds):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        rng = make_rng(seed)
        for _ in range(rounds):
            policy = rng.choice(["eager", "demand"])
            vma = kernel.mmap(p, PAGE_SIZE * rng.randrange(1, 64),
                              policy=policy)
            for off in range(0, vma.length, PAGE_SIZE * 2):
                kernel.translate(p.asid, vma.vbase + off)
            kernel.munmap(p, vma)
        total = kernel.frames.total_frames
        assert kernel.frames.free_frames() + kernel.frames.allocated_frames() == total


# ---------------------------------------------------------------------- #
# Job wire format (the simulation service's repro.job/v1 documents)
# ---------------------------------------------------------------------- #

def _shuffled_keys(doc):
    """Recursively rebuild dicts with reversed key insertion order."""
    if isinstance(doc, dict):
        return {key: _shuffled_keys(doc[key]) for key in reversed(doc)}
    if isinstance(doc, list):
        return [_shuffled_keys(item) for item in doc]
    return doc


def _jobs():
    from repro.exec import Job
    from repro.sim.runner import MMU_CONFIGS

    configs = st.sampled_from([
        None,
        SystemConfig(),
        tiny_config(),
        SystemConfig().with_delayed_tlb_entries(4096),
        SystemConfig().with_llc_size(8 * MB),
    ])
    tags = st.lists(
        st.tuples(st.sampled_from(["size", "kind", "sweep"]),
                  st.one_of(st.integers(0, 99),
                            st.sampled_from(["a", "b"]))),
        max_size=2, unique_by=lambda tag: tag[0]).map(tuple)
    return st.builds(
        Job,
        workload=st.sampled_from(["gups", "milc", "mcf", "stream"]),
        mmu=st.sampled_from(MMU_CONFIGS),
        config=configs,
        accesses=st.integers(1, 10 ** 7),
        warmup=st.integers(0, 10 ** 6),
        seed=st.integers(0, 2 ** 31),
        interval=st.one_of(st.none(), st.integers(1, 10 ** 5)),
        reset_stats_after_warmup=st.booleans(),
        tags=tags,
    )


class TestJobWireFormat:
    """The service's dedup/cache soundness rests on these invariants."""

    @settings(max_examples=30, deadline=None)
    @given(_jobs())
    def test_json_round_trip_preserves_job_and_fingerprint(self, job):
        from repro.exec import Job

        back = Job.from_json_dict(job.to_json_dict())
        assert back == job
        assert back.fingerprint() == job.fingerprint()
        assert back.identity() == job.identity()

    @settings(max_examples=30, deadline=None)
    @given(_jobs())
    def test_fingerprint_invariant_under_document_key_order(self, job):
        from repro.exec import Job

        doc = job.to_json_dict()
        reordered = _shuffled_keys(doc)
        assert list(reordered) != list(doc)       # order truly differs
        assert Job.from_json_dict(reordered).fingerprint() == \
            job.fingerprint()

    @settings(max_examples=30, deadline=None)
    @given(_jobs())
    def test_unknown_keys_ignored_for_forward_compat(self, job):
        from repro.exec import Job

        doc = job.to_json_dict()
        doc["future_field"] = {"nested": True}
        if doc["config"] is not None:
            doc["config"]["future_knob"] = 7
        assert Job.from_json_dict(doc) == job

    @settings(max_examples=30, deadline=None)
    @given(_jobs(), _jobs())
    def test_fingerprint_equality_tracks_identity(self, a, b):
        """Distinct fingerprints ⇒ distinct identities, and equal
        identities ⇒ equal fingerprints (no spurious cache misses)."""
        if a.fingerprint() != b.fingerprint():
            assert a.identity() != b.identity()
        if a.identity() == b.identity():
            assert a.fingerprint() == b.fingerprint()
