#!/usr/bin/env python
"""Reproduce every paper artifact at demo scale, in one run.

Runs miniature versions of each experiment (smaller traces than the
`benchmarks/` modules, so the whole tour finishes in a few minutes) and
prints the regenerated tables and figures next to the paper's claims.

For the full-scale regeneration with assertions, run:

    pytest benchmarks/ --benchmark-only -s
"""

import dataclasses
import time

from repro.common.params import SystemConfig
from repro.core import HybridMmu
from repro.energy import EnergyModel
from repro.osmodel import Kernel
from repro.sim import Simulator, geometric_mean, lay_out, run_workload
from repro.sim.report import series_table
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu
from repro.workloads import spec

SMALL = dict(accesses=8_000, warmup=12_000)


def banner(title, claim):
    print(f"\n{'=' * 72}\n{title}\n  paper: {claim}\n{'-' * 72}")


def table2():
    banner("Table II — synonym filtering",
           "FP < 0.5%; access reduction 84-99.9% (postgres the outlier)")
    for name in ("postgres", "apache"):
        cores = spec(name).sharing.processes
        config = dataclasses.replace(
            SystemConfig().with_llc_size(8 * 1024 * 1024), cores=cores)
        kernel = Kernel(config)
        workload = lay_out(name, kernel)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        Simulator(mmu).run(workload, **SMALL)
        print(f"  {name:<10} fp={100 * mmu.false_positive_rate():.3f}%  "
              f"access reduction={100 * mmu.tlb_access_reduction():.1f}%")


def figure4():
    banner("Figure 4 — delayed-TLB MPKI vs. size",
           "GUPS barely improves with 32x the entries; omnetpp collapses")
    sizes = (1024, 8192, 32768)
    rows = {}
    for name in ("gups", "omnetpp"):
        row = []
        for entries in sizes:
            config = SystemConfig().with_delayed_tlb_entries(entries)
            result = run_workload(name, "hybrid_tlb", config=config, **SMALL)
            row.append(result.tlb_mpki())
        rows[name] = row
    print(series_table(rows, [f"{s // 1024}K" for s in sizes]))


def figure9():
    banner("Figure 9 — native performance",
           "+10.7% average (memory-intensive); many-seg+SC ~ ideal TLB")
    configs = ("baseline", "hybrid_segments", "ideal")
    speedups = {c: [] for c in configs}
    for name in ("gups", "mcf", "omnetpp"):
        ipcs = {c: run_workload(name, c, **SMALL).ipc for c in configs}
        line = "  ".join(f"{c}={ipcs[c] / ipcs['baseline']:.3f}"
                         for c in configs)
        print(f"  {name:<10} {line}")
        for c in configs:
            speedups[c].append(ipcs[c] / ipcs["baseline"])
    print(f"  geomean    hybrid_segments="
          f"{geometric_mean(speedups['hybrid_segments']):.3f} "
          f"ideal={geometric_mean(speedups['ideal']):.3f}")


def figure10():
    banner("Figure 10* — virtualized performance",
           "+31.7% vs. a 2-D translation-cache baseline")
    ipcs = {}
    for kind in ("baseline", "hybrid"):
        hypervisor = Hypervisor()
        vm = hypervisor.create_vm("vm")
        workload = lay_out("mcf", vm.guest_kernel)
        mmu = (VirtConventionalMmu(hypervisor, vm) if kind == "baseline"
               else VirtHybridMmu(hypervisor, vm, delayed="segments"))
        ipcs[kind] = Simulator(mmu).run(workload, accesses=6_000,
                                        warmup=8_000).ipc
    print(f"  mcf under a VM: hybrid/baseline = "
          f"{ipcs['hybrid'] / ipcs['baseline']:.2f}x")


def figure11():
    banner("Figure 11* — translation energy", "-60% translation power")
    energy = EnergyModel()
    name = "omnetpp"
    base = run_workload(name, "baseline", accesses=8_000, warmup=25_000)
    hybrid = run_workload(name, "hybrid_tlb", accesses=8_000, warmup=25_000)
    fetches = spec(name).instructions_for(33_000)
    b = energy.baseline_translation_energy(base.stats,
                                           instruction_fetches=fetches)
    h = energy.hybrid_translation_energy(hybrid.stats,
                                         instruction_fetches=fetches)
    extra = energy.tag_extension_energy(hybrid.stats)
    print(f"  {name}: reduction = "
          f"{100 * energy.reduction(b, h, proposed_extra=extra):.1f}%")


def main():
    start = time.time()
    print("Hybrid Virtual Caching (ISCA 2016) — demo-scale reproduction")
    table2()
    figure4()
    figure9()
    figure10()
    figure11()
    print(f"\nDone in {time.time() - start:.0f}s.  Full-scale artifacts: "
          f"pytest benchmarks/ --benchmark-only -s")


if __name__ == "__main__":
    main()
