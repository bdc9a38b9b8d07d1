"""Build the paper-fidelity HTML report, measuring the hard claims live.

Most scorecard claims are extracted straight from recorded documents
(compare documents → the native-speedup headline, sweeps → Figure 4),
but some — translation energy, the virtualized speedup, Table I's
sharing fractions — have no standard document kind.  This example shows
the escape hatch: measure them with the repo's own models, pack them
into a ``repro.fidelity/v1`` measurement document, and feed that to the
report builder alongside the committed sample documents in
``examples/data/``.

Run::

    PYTHONPATH=src python examples/fidelity_report.py

writes ``fidelity_report.html`` next to this script and prints the
scorecard summary.  (The committed ``examples/data/fidelity_sample.json``
was produced by :func:`measure_claims` at the same scales.)
"""

from __future__ import annotations

import json
from pathlib import Path

import dataclasses

from repro.common.params import SegmentTranslationConfig, SystemConfig
from repro.core import HybridMmu
from repro.energy import EnergyModel
from repro.osmodel import Kernel
from repro.report import (ReportBundle, build_report, evaluate_scorecard,
                          fidelity_doc)
from repro.segtrans import IndexCache
from repro.sim import Simulator, geometric_mean, lay_out, run_workload
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu
from repro.workloads import spec

#: Virtualized runs: short windows are enough for the IPC ratio.
ACCESSES = 4_000
WARMUP = 6_000
VIRT_WORKLOADS = ("xalancbmk", "omnetpp", "astar")

#: Energy runs: the reduction is a steady-state property — the filters
#: must be trained before the measured window, so warm up much longer.
ENERGY_ACCESSES = 25_000
ENERGY_WARMUP = 50_000
ENERGY_WORKLOADS = ("omnetpp", "astar")

#: Figure 7: index-tree lookups per fragmented workload.
FIG7_LOOKUPS = 5_000
FIG7_WORKLOADS = ("xalancbmk", "tigr", "memcached", "omnetpp")

#: Table II: the synonym-filter study (postgres is the paper's worst
#: case for TLB-access reduction, so it alone bounds both claims).
TABLE2_ACCESSES = 15_000
TABLE2_WARMUP = 30_000

#: Table III: apps the paper calls out for under-used eager allocations.
TABLE3_WORKLOADS = ("memcached", "tigr", "xalancbmk", "mcf")

DATA_DIR = Path(__file__).parent / "data"
OUT = Path(__file__).parent / "fidelity_report.html"


def measure_energy_reduction() -> float:
    """Figure 11 style: translation energy, baseline vs. hybrid (%)."""
    reductions = []
    for name in ENERGY_WORKLOADS:
        energy = EnergyModel()
        base = run_workload(name, "baseline",
                            accesses=ENERGY_ACCESSES, warmup=ENERGY_WARMUP)
        hybrid = run_workload(name, "hybrid_tlb",
                              accesses=ENERGY_ACCESSES, warmup=ENERGY_WARMUP)
        fetches = spec(name).instructions_for(ENERGY_ACCESSES + ENERGY_WARMUP)
        b = energy.baseline_translation_energy(base.stats,
                                               instruction_fetches=fetches)
        h = energy.hybrid_translation_energy(hybrid.stats,
                                             instruction_fetches=fetches)
        tag_extra = energy.tag_extension_energy(hybrid.stats)
        reductions.append(energy.reduction(b, h, proposed_extra=tag_extra))
    return 100.0 * sum(reductions) / len(reductions)


def measure_virt_speedup() -> float:
    """Figure 10 style: two-step delayed translation vs. 2-D walks
    (geomean % gain across memory-intensive workloads)."""
    ratios = []
    for name in VIRT_WORKLOADS:
        ipcs = {}
        for key, delayed in (("base", None), ("seg", "segments")):
            hypervisor = Hypervisor()
            vm = hypervisor.create_vm(f"vm-{name}")
            workload = lay_out(name, vm.guest_kernel)
            mmu = (VirtConventionalMmu(hypervisor, vm) if delayed is None
                   else VirtHybridMmu(hypervisor, vm, delayed=delayed))
            result = Simulator(mmu).run(workload, accesses=ACCESSES,
                                        warmup=WARMUP)
            ipcs[key] = result.ipc
        ratios.append(ipcs["seg"] / ipcs["base"])
    return 100.0 * (geometric_mean(ratios) - 1.0)


def measure_postgres_sharing() -> float:
    """Table I style: postgres r/w shared memory area fraction."""
    workload = lay_out("postgres", Kernel(SystemConfig()))
    return workload.shared_area_fraction()


def measure_index_cache_hit() -> float:
    """Figure 7 style: 8 KB index-cache hit rate over real workloads
    with segments split ~10 ways to inject external fragmentation."""
    kernel = Kernel(SystemConfig(
        segments=SegmentTranslationConfig(segment_table_entries=16384)))
    workloads = [lay_out(name, kernel, seed=11 + i)
                 for i, name in enumerate(FIG7_WORKLOADS)]
    for seg in list(kernel.segment_table.segments_sorted()):
        kernel.segment_table.split(seg.seg_id, 10)
    tree = kernel.current_index_tree()
    cache = IndexCache(SegmentTranslationConfig(index_cache_size=8192),
                       memory_charge=lambda pa: 0)
    for workload in workloads:
        for record in workload.trace(FIG7_LOOKUPS):
            for node_pa in tree.lookup(record.asid, record.va).node_addresses:
                cache.read_node(node_pa)
    return cache.hit_rate()


def measure_synonym_filter() -> tuple:
    """Table II style: postgres through the hybrid MMU at the paper's
    Section III-C setup (8 MB shared LLC, area-equalized delayed TLB);
    returns ``(tlb_access_reduction_pct, false_positive_rate)``."""
    sharing = spec("postgres").sharing
    cores = sharing.processes if sharing else 1
    config = dataclasses.replace(
        SystemConfig().with_llc_size(8 * 1024 * 1024), cores=cores)
    config = config.with_delayed_tlb_entries(
        1024 * (1 << (cores - 1).bit_length()))
    kernel = Kernel(config)
    workload = lay_out("postgres", kernel)
    hybrid = HybridMmu(kernel, config, delayed="tlb")
    Simulator(hybrid).run(workload, accesses=TABLE2_ACCESSES,
                          warmup=TABLE2_WARMUP,
                          reset_stats_after_warmup=True)
    return 100.0 * hybrid.tlb_access_reduction(), hybrid.false_positive_rate()


def measure_eager_untouched() -> float:
    """Table III style: worst untouched fraction of eagerly-allocated
    memory across the paper's under-used applications (design values of
    the trace generators — the whole-run utilization Table III reports)."""
    return max(1.0 - spec(name).touch_fraction for name in TABLE3_WORKLOADS)


def measure_claims() -> dict:
    """The ``repro.fidelity/v1`` document this example contributes."""
    energy = measure_energy_reduction()
    virt = measure_virt_speedup()
    access_reduction, fp_rate = measure_synonym_filter()
    return fidelity_doc({
        "abstract.translation_power": energy,
        "fig11.energy_reduction": energy,
        "abstract.virt_speedup": virt,
        "fig10.virt_speedup": virt,
        "table1.postgres_shared_area": measure_postgres_sharing(),
        "fig7.index_cache_8k_hit": measure_index_cache_hit(),
        "table2.filter_access_reduction": access_reduction,
        "table2.false_positive_rate": fp_rate,
        "table3.eager_untouched": measure_eager_untouched(),
    }, note=f"measured live: virt at accesses={ACCESSES}/warmup={WARMUP}, "
            f"energy at {ENERGY_ACCESSES}/{ENERGY_WARMUP}, "
            f"filter at {TABLE2_ACCESSES}/{TABLE2_WARMUP}")


def main() -> None:
    bundle = ReportBundle()
    for path in sorted(DATA_DIR.glob("*.json")):
        if path.name == "fidelity_sample.json":
            continue  # superseded by the live measurement below
        with open(path, encoding="utf-8") as handle:
            bundle.add_doc(json.load(handle),
                           source=f"examples/data/{path.name}")
    print("measuring energy / virtualization / sharing claims...")
    bundle.add_doc(measure_claims(), source="fidelity_report.py (live)")

    rows = evaluate_scorecard(bundle)
    counts: dict = {}
    for row in rows:
        counts[row.badge] = counts.get(row.badge, 0) + 1
    print("fidelity scorecard: "
          + "  ".join(f"{kind}={counts.get(kind, 0)}"
                      for kind in ("pass", "warn", "fail", "no-data")))
    for row in rows:
        measured = ("—" if row.measured is None
                    else f"{row.measured:.4g} {row.claim.unit}")
        print(f"  [{row.badge:>7}] {row.claim.artifact:<9} "
              f"{row.claim.title[:58]:<58} paper="
              f"{row.claim.paper_value:g} reproduced={measured}")

    Path(OUT).write_text(build_report(bundle), encoding="utf-8")
    print(f"self-contained HTML report -> {OUT}")


if __name__ == "__main__":
    main()
