"""Integration tests: the paper's qualitative claims, end to end.

These run small simulations and assert the *shape* of the paper's
results — ordering relations between configurations — rather than exact
numbers (see EXPERIMENTS.md for the quantitative comparison).
"""

import dataclasses

from repro.common.params import SystemConfig
from repro.common.rng import make_rng
from repro.core import AccessOutcome, HybridMmu
from repro.energy import EnergyModel
from repro.osmodel import Kernel
from repro.sim import Simulator, compare_configs, lay_out, run_workload

MB = 1024 * 1024
SMALL = dict(accesses=5000, warmup=2000)


class TestPerformanceOrdering:
    def test_hybrid_between_baseline_and_ideal_on_tlb_hostile(self):
        row = compare_configs("gups", mmu_names=("baseline", "hybrid_segments",
                                                 "ideal"), **SMALL)
        n = row.normalized()
        assert n["ideal"] >= n["hybrid_segments"] >= 1.0

    def test_segment_cache_helps(self):
        row = compare_configs(
            "gups", mmu_names=("baseline", "hybrid_segments",
                               "hybrid_segments_nosc"), **SMALL)
        n = row.normalized()
        assert n["hybrid_segments"] >= n["hybrid_segments_nosc"]

    def test_many_segments_beat_delayed_tlb_on_huge_working_set(self):
        row = compare_configs("gups", mmu_names=("baseline", "hybrid_tlb",
                                                 "hybrid_segments"), **SMALL)
        n = row.normalized()
        assert n["hybrid_segments"] > n["hybrid_tlb"]


class TestSynonymClaims:
    def test_false_positive_rate_below_paper_bound(self):
        """Table II: false positives < 0.5% of accesses on every workload."""
        for name in ("postgres", "apache", "ferret"):
            config = dataclasses.replace(
                SystemConfig().with_llc_size(8 * MB), cores=4)
            kernel = Kernel(config)
            w = lay_out(name, kernel)
            mmu = HybridMmu(kernel, config, delayed="tlb")
            Simulator(mmu).run(w, accesses=6000, warmup=1000)
            assert mmu.false_positive_rate() < 0.005

    def test_tlb_access_reduction_matches_table2_shape(self):
        """postgres ~84%, low-sharing apps ~99% (Table II)."""
        reductions = {}
        for name in ("postgres", "apache"):
            config = dataclasses.replace(
                SystemConfig().with_llc_size(8 * MB), cores=4)
            kernel = Kernel(config)
            w = lay_out(name, kernel)
            mmu = HybridMmu(kernel, config, delayed="tlb")
            Simulator(mmu).run(w, accesses=6000, warmup=1000)
            reductions[name] = mmu.tlb_access_reduction()
        assert 0.75 < reductions["postgres"] < 0.90
        assert reductions["apache"] > 0.95

    def test_no_synonym_incoherence_under_random_mixed_traffic(self):
        """Stress: random reads/writes through multiple synonym mappings
        never produce two distinct physical names for one block."""
        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 32 * 4096)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        rng = make_rng(13)
        for _ in range(500):
            offset = rng.randrange(0, 32 * 4096) & ~7
            pa_a = AccessOutcome._make(mmu.access(
                0, a.asid, vmas[a.asid].vbase + offset,
                rng.random() < 0.5)).translated_pa
            pa_b = AccessOutcome._make(mmu.access(
                1, b.asid, vmas[b.asid].vbase + offset,
                rng.random() < 0.5)).translated_pa
            assert pa_a == pa_b


class TestEnergyClaims:
    def test_translation_energy_reduced_substantially(self):
        """The paper's -60% translation power claim (±wide band: our
        constants are CACTI-class estimates and our traces shorter; the
        direction and rough magnitude are what is asserted here, the
        full-scale numbers live in benchmarks/test_fig11_energy.py)."""
        energy = EnergyModel()
        reductions = []
        accesses, warmup = 6000, 30000
        from repro.workloads import spec as wspec
        for name in ("omnetpp", "astar", "stream"):
            base = run_workload(name, "baseline", accesses=accesses,
                                warmup=warmup)
            hybrid = run_workload(name, "hybrid_tlb", accesses=accesses,
                                  warmup=warmup)
            # Structure counters cover warmup + timed; use the matching
            # instruction count for the per-fetch probes.
            fetches = wspec(name).instructions_for(accesses + warmup)
            b = energy.baseline_translation_energy(
                base.stats, instruction_fetches=fetches)
            h = energy.hybrid_translation_energy(
                hybrid.stats, instruction_fetches=fetches)
            extra = energy.tag_extension_energy(hybrid.stats)
            reductions.append(energy.reduction(b, h, proposed_extra=extra))
        average = sum(reductions) / len(reductions)
        assert average > 0.35


class TestDelayedTranslationClaims:
    def test_llc_filters_translation_requests(self):
        """Section II-A: cache-resident data needs no translation."""
        result = run_workload("omnetpp", "hybrid_tlb", **SMALL)
        delayed_lookups = result.counter("delayed_tlb", "lookups")
        total_accesses = result.counter("hybrid", "accesses")  # incl. warmup
        assert delayed_lookups < total_accesses  # only LLC misses translate

    def test_bigger_llc_fewer_delayed_translations(self):
        # A strict cyclic sweep over 1.5 MB: a 1 MB LLC thrashes (LRU's
        # worst case) while an 8 MB LLC retains the whole loop, so delayed
        # translations collapse — capacity, not cold misses, decides.
        from repro.workloads import PatternMix, WorkloadSpec
        sweep = WorkloadSpec(
            name="llc_sweep",
            footprint_bytes=1536 * 1024,
            patterns=(PatternMix("sequential", 1.0, (("stride", 64),)),),
            mem_ratio=0.5, local_fraction=0.0, hot_fraction=0.0,
        )
        kwargs = dict(accesses=10_000, warmup=25_000)
        small = run_workload(sweep, "hybrid_tlb",
                             config=SystemConfig().with_llc_size(1 * MB),
                             **kwargs)
        large = run_workload(sweep, "hybrid_tlb",
                             config=SystemConfig().with_llc_size(8 * MB),
                             **kwargs)
        assert (large.counter("delayed_tlb", "lookups")
                < small.counter("delayed_tlb", "lookups"))


class TestOsIntegration:
    def test_remap_keeps_hybrid_consistent(self):
        """munmap + fresh mmap reusing frames must never serve stale data."""
        config = SystemConfig()
        kernel = Kernel(config)
        p = kernel.create_process("p")
        mmu = HybridMmu(kernel, config, delayed="tlb")
        vma = kernel.mmap(p, 16 * 4096, policy="demand")
        va = vma.vbase
        mmu.access(0, p.asid, va, True)
        kernel.munmap(p, vma)
        vma2 = kernel.mmap(p, 16 * 4096, policy="demand")
        pa_after = AccessOutcome._make(
            mmu.access(0, p.asid, vma2.vbase, False)).translated_pa
        assert pa_after == kernel.translate(p.asid, vma2.vbase).pa
        assert mmu.caches.probe_line(
            0, __import__("repro.common.address", fromlist=["virtual_block_key"])
            .virtual_block_key(p.asid, va)) is None or vma2.vbase == va
