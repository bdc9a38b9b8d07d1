"""Tests for the simulation drivers and result containers."""

import dataclasses

import pytest

from repro.common.params import (
    SegmentTranslationConfig,
    SynonymFilterConfig,
    SystemConfig,
    TlbConfig,
    config_fingerprint,
)
from repro.sim import (
    MMU_CONFIGS,
    PRIOR_CONFIGS,
    Simulator,
    build_mmu,
    compare_configs,
    geometric_mean,
    lay_out,
    run_workload,
)
from repro.exec import ExperimentPlan
from repro.obs.tracer import Tracer
from repro.sim.results import SimulationResult
from repro.sim.sweep import grid_jobs, sweep_grid
from repro.osmodel import Kernel
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu

SMALL = dict(accesses=2000, warmup=500)


class TestBuilders:
    def test_all_configs_constructible(self):
        for name in MMU_CONFIGS:
            kernel = Kernel(SystemConfig())
            mmu = build_mmu(name, kernel)
            assert mmu is not None

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            build_mmu("nope", Kernel(SystemConfig()))

    def test_lay_out_by_name_and_spec(self):
        from repro.workloads import spec
        kernel = Kernel(SystemConfig())
        w1 = lay_out("stream", kernel)
        assert w1.spec.name == "stream"
        kernel2 = Kernel(SystemConfig())
        w2 = lay_out(spec("stream"), kernel2)
        assert w2.spec.name == "stream"


class TestRunWorkload:
    def test_result_fields_populated(self):
        result = run_workload("stream", "baseline", **SMALL)
        assert result.workload == "stream"
        assert result.mmu == "baseline"
        assert result.accesses == 2000
        assert result.instructions == 2000 * (1 + 1)  # mem_ratio 0.4 -> gap 1
        assert result.cycles > 0
        assert 0 < result.ipc < 4
        assert result.stats  # snapshot present

    def test_deterministic_across_runs(self):
        a = run_workload("omnetpp", "hybrid_tlb", **SMALL, seed=3)
        b = run_workload("omnetpp", "hybrid_tlb", **SMALL, seed=3)
        assert a.cycles == b.cycles
        assert a.stats == b.stats

    def test_warmup_excluded_from_timing(self):
        result = run_workload("stream", "ideal", accesses=1000, warmup=500)
        assert result.accesses == 1000

    def test_failing_access_propagates(self):
        """An access that raises inside a block ends the run there: the
        error reaches the caller and no later reference is simulated."""
        kernel = Kernel(SystemConfig())
        workload = lay_out("stream", kernel, seed=42)
        mmu = build_mmu("baseline", kernel)
        access = mmu.access
        calls = 0

        def failing_access(core, asid, va, is_write):
            nonlocal calls
            calls += 1
            if calls == 300:
                raise RuntimeError("access 300 failed")
            return access(core, asid, va, is_write)

        mmu.access = failing_access
        with pytest.raises(RuntimeError, match="access 300 failed"):
            Simulator(mmu).run(workload, 500, warmup=100, seed=42)
        assert calls == 300


class TestCompareConfigs:
    def test_normalized_baseline_is_one(self):
        row = compare_configs("stream", mmu_names=("baseline", "ideal"),
                              **SMALL)
        normalized = row.normalized()
        assert normalized["baseline"] == pytest.approx(1.0)
        assert normalized["ideal"] >= 1.0

    def test_hybrid_never_slower_than_baseline_much(self):
        row = compare_configs("omnetpp",
                              mmu_names=("baseline", "hybrid_segments"),
                              **SMALL)
        assert row.normalized()["hybrid_segments"] > 0.9


class TestSweep:
    def test_delayed_tlb_sweep_monotone_misses(self):
        rows = sweep_grid("omnetpp", "hybrid_tlb",
                          {"delayed_tlb.entries": [512, 4096]}, **SMALL)
        results = [row["result"] for row in rows]
        assert len(results) == 2
        small_misses = results[0].counter("delayed_tlb", "misses")
        large_misses = results[1].counter("delayed_tlb", "misses")
        assert large_misses <= small_misses

    def test_delayed_tlb_sweep_points_tagged_with_the_field(self):
        tracer = Tracer()
        jobs = grid_jobs("stream", "hybrid_tlb",
                         {"delayed_tlb.entries": [512, 4096]},
                         SystemConfig(), seed=42, interval=None, **SMALL)
        ExperimentPlan(jobs).run(tracer=tracer)
        marks = [e.detail for e in tracer.events
                 if e.stage == "mark" and e.detail["label"] == "run_start"]
        assert [m["delayed_tlb.entries"] for m in marks] == [512, 4096]


class TestResults:
    def test_llc_miss_rate(self):
        result = run_workload("gups", "baseline", **SMALL)
        assert 0 < result.llc_miss_rate() <= 1

    def test_speedup_over(self):
        a = SimulationResult("w", "m", 1, 1, 100.0, 2.0, {})
        b = SimulationResult("w", "m", 1, 1, 100.0, 1.0, {})
        assert a.speedup_over(b) == 2.0
        zero = SimulationResult("w", "m", 1, 1, 0.0, 0.0, {})
        assert a.speedup_over(zero) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 2.0]) == pytest.approx(2.0)

    def test_tlb_mpki(self):
        result = run_workload("gups", "hybrid_tlb", **SMALL)
        assert result.tlb_mpki("delayed_tlb") > 0


class TestConfigProvenance:
    """Every MMU builds its structures from the config its result's
    manifest hashes: a non-default machine reaches each structure."""

    CONFIG = SystemConfig(
        segments=SegmentTranslationConfig(index_cache_size=8 * 1024,
                                          segment_table_entries=1024),
        synonym_filter=SynonymFilterConfig(bits=512),
        delayed_tlb=TlbConfig(2048, 8, 7),
        synonym_tlb=TlbConfig(32, 4, 1),
    )
    #: The configured sizes, read back from the structures below.
    SIZES = {"synonym_tlb": 32, "delayed_tlb": 2048, "index_cache": 8192}
    #: Which of those structures each MMU has.
    HAS = {
        "baseline": (), "ideal": (), "direct_segment": (), "rmm": (),
        "baseline_thp": (), "virt_baseline": (),
        "hybrid_tlb": ("synonym_tlb", "delayed_tlb"),
        "hybrid_segments": ("synonym_tlb", "index_cache"),
        "hybrid_segments_nosc": ("synonym_tlb", "index_cache"),
        "enigma": ("delayed_tlb",),
        "virt_hybrid_tlb": ("synonym_tlb", "delayed_tlb"),
        "virt_hybrid_segments": ("synonym_tlb", "index_cache"),
    }

    def _system(self, name):
        """``(mmu, workload, synonym filters, config)`` of one point,
        built as ``Job.run`` and perfbench's virtualized points build
        theirs."""
        if not name.startswith("virt_"):
            config = self.CONFIG
            kernel = Kernel(config,
                            transparent_huge_pages=name == "baseline_thp")
            workload = lay_out("stream", kernel)
            filters = [p.synonym_filter for p in workload.processes]
            return build_mmu(name, kernel, config), workload, filters, config
        config = dataclasses.replace(self.CONFIG,
                                     physical_memory_bytes=1024 ** 3)
        hypervisor = Hypervisor(guest_config=config)
        vm = hypervisor.create_vm("vm")
        workload = lay_out("stream", vm.guest_kernel)
        filters = [p.synonym_filter for p in workload.processes]
        if name == "virt_baseline":
            mmu = VirtConventionalMmu(hypervisor, vm)
        else:
            mmu = VirtHybridMmu(hypervisor, vm,
                                delayed=name.rsplit("_", 1)[1])
        return mmu, workload, filters + [vm.host_filter], config

    @staticmethod
    def _sizes(mmu):
        sizes = {}
        engine = getattr(mmu, "delayed", None)
        if hasattr(mmu, "synonym_tlb"):
            sizes["synonym_tlb"] = mmu.synonym_tlb.config.entries
        delayed_tlb = getattr(engine, "tlb", getattr(mmu, "delayed_tlb", None))
        if delayed_tlb is not None:
            sizes["delayed_tlb"] = delayed_tlb._tlb.config.entries
        translator = getattr(engine, "translator",
                             getattr(engine, "guest_translator", None))
        if translator is not None:
            sizes["index_cache"] = translator.index_cache.size_bytes
        return sizes

    @pytest.mark.parametrize("name", MMU_CONFIGS + PRIOR_CONFIGS + (
        "virt_baseline", "virt_hybrid_tlb", "virt_hybrid_segments"))
    def test_structures_and_manifest_follow_the_config(self, name):
        mmu, workload, filters, config = self._system(name)
        assert self._sizes(mmu) == {k: self.SIZES[k] for k in self.HAS[name]}
        assert workload.kernel.segment_table.capacity == 1024
        assert filters
        for synonym_filter in filters:
            assert synonym_filter.fine.bits == synonym_filter.coarse.bits == 512
        result = Simulator(mmu).run(workload, accesses=300, warmup=100, seed=3)
        assert result.manifest.config_hash == config_fingerprint(config)
        assert config_fingerprint(config) != config_fingerprint(SystemConfig())
