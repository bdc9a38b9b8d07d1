"""Tests for the parallel-vs-serial delayed translation design choice."""

from repro.common.params import SystemConfig
from repro.core import AccessOutcome, HybridMmu
from repro.osmodel import Kernel
from repro.sim import Simulator, lay_out

MB = 1024 * 1024


def build(parallel, delayed="segments"):
    config = SystemConfig()
    kernel = Kernel(config)
    p = kernel.create_process("p")
    vma = kernel.mmap(p, 8 * MB, policy="eager")
    mmu = HybridMmu(kernel, config, delayed=delayed,
                    parallel_delayed=parallel)
    return kernel, p, vma, mmu


class TestParallelDelayedTranslation:
    def test_parallel_hides_latency_under_llc(self):
        _k, p, vma, serial = build(parallel=False)
        out_serial = AccessOutcome._make(serial.access(0, p.asid, vma.vbase, False))
        _k2, p2, vma2, parallel = build(parallel=True)
        out_parallel = AccessOutcome._make(
            parallel.access(0, p2.asid, vma2.vbase, False))
        assert out_parallel.delayed_cycles <= out_serial.delayed_cycles
        # Same translation result either way.
        assert (out_parallel.translated_pa - vma2.segments[0].pbase
                == out_serial.translated_pa - vma.segments[0].pbase)

    def test_parallel_wastes_energy_on_llc_hits(self):
        """The paper's stated cost: speculative translations on LLC hits."""
        _k, p, vma, mmu = build(parallel=True)
        # Fill: miss to memory, then evict from L1/L2 naturally by
        # touching far blocks so a later access hits the LLC.
        mmu.access(0, p.asid, vma.vbase, False)
        # Thrash the private levels only (small strides over many sets).
        for i in range(1, 600):
            mmu.access(0, p.asid, vma.vbase + i * 4096 + 64, False)
        out = AccessOutcome._make(mmu.access(0, p.asid, vma.vbase, False))
        if out.hit_level == "llc":
            assert mmu.hybrid_stats["wasted_parallel_translations"] >= 1

    def test_serial_never_translates_on_hits(self):
        _k, p, vma, mmu = build(parallel=False)
        mmu.access(0, p.asid, vma.vbase, False)
        translations_after_fill = mmu.delayed.translator.stats["translations"]
        mmu.access(0, p.asid, vma.vbase, False)  # L1 hit
        assert (mmu.delayed.translator.stats["translations"]
                == translations_after_fill)

    def test_parallel_performance_at_least_serial_nosc(self):
        """Parallel access should recover what the missing SC loses."""
        results = {}
        for label, kwargs in (
            ("serial_sc", dict(parallel_delayed=False,
                               use_segment_cache=True)),
            ("parallel_nosc", dict(parallel_delayed=True,
                                   use_segment_cache=False)),
            ("serial_nosc", dict(parallel_delayed=False,
                                 use_segment_cache=False)),
        ):
            config = SystemConfig()
            kernel = Kernel(config)
            workload = lay_out("gups", kernel)
            mmu = HybridMmu(kernel, config, delayed="segments", **kwargs)
            results[label] = Simulator(mmu).run(workload, accesses=6000,
                                                warmup=3000).ipc
        # The paper's two viable points both beat plain serial-no-SC.
        assert results["parallel_nosc"] >= results["serial_nosc"] - 1e-9
        assert results["serial_sc"] >= results["serial_nosc"] - 1e-9
