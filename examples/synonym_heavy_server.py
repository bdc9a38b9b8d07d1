#!/usr/bin/env python
"""Synonym-heavy server scenario (the paper's postgres case).

Four database worker processes share a buffer pool (two thirds of
their footprint) mapped at
*different* virtual addresses in each process — true synonyms.  This is
the adversarial case for virtual caching: the synonym filter must catch
every shared access (correctness) while letting the ~84% of private
accesses bypass the TLBs (efficiency).

The script demonstrates:

1. the per-process Bloom synonym filters catching all shared accesses;
2. false-positive accounting (guaranteed < the paper's 0.5%);
3. a private→shared transition at runtime (the OS updates the filters
   and flushes the stale virtually addressed cache lines);
4. coherence across synonyms: a write through one process's mapping is
   visible at the other process's mapping because both name the block by
   its single physical address.
"""

import dataclasses

from repro.common import SystemConfig
from repro.core import AccessOutcome, HybridMmu
from repro.osmodel import Kernel
from repro.sim import Simulator, lay_out

ACCESSES = 40_000
WARMUP = 10_000


def main() -> None:
    print("=== Synonym-heavy server (postgres-like) ===\n")
    config = dataclasses.replace(SystemConfig().with_llc_size(8 * 1024 * 1024),
                                 cores=4)
    kernel = Kernel(config)
    workload = lay_out("postgres", kernel)
    mmu = HybridMmu(kernel, config, delayed="tlb")

    result = Simulator(mmu).run(workload, accesses=ACCESSES, warmup=WARMUP)
    hybrid = result.group("hybrid")
    total = hybrid["accesses"]
    print(f"accesses:                {total}")
    print(f"shared-area fraction:    {workload.shared_area_fraction():.2f}")
    print(f"TLB bypasses (private):  {hybrid['tlb_bypasses']} "
          f"({100 * mmu.tlb_access_reduction():.1f}%)")
    print(f"true synonym accesses:   {hybrid['true_synonym_accesses']}")
    print(f"false positives:         {hybrid.get('false_positive_accesses', 0)} "
          f"({100 * mmu.false_positive_rate():.3f}% — paper bound: <0.5%)")

    # -- Runtime private→shared transition ---------------------------- #
    print("\n-- private->shared transition --")
    process = workload.processes[0]
    vma = workload.private_vmas[process.asid][0]
    candidate_before = process.synonym_filter.is_synonym_candidate(vma.vbase)
    kernel.share_existing_pages(process, vma.vbase, 4 * 4096)
    candidate_after = process.synonym_filter.is_synonym_candidate(vma.vbase)
    print(f"filter reports candidate: before={candidate_before}, "
          f"after={candidate_after}")

    # -- Synonym coherence through the single physical name ----------- #
    print("\n-- synonym coherence --")
    p0, p1 = workload.processes[0], workload.processes[1]
    va0 = workload.shared_vmas[p0.asid].vbase
    va1 = workload.shared_vmas[p1.asid].vbase
    out0 = AccessOutcome._make(mmu.access(0, p0.asid, va0, is_write=True))
    out1 = AccessOutcome._make(mmu.access(1, p1.asid, va1, is_write=False))
    assert out0.translated_pa == out1.translated_pa, "synonyms must share a PA"
    print(f"process {p0.asid} wrote PA {out0.translated_pa:#x} via VA {va0:#x}")
    print(f"process {p1.asid} read  PA {out1.translated_pa:#x} via VA {va1:#x}")
    print("both mappings resolved to one physical block — no stale copies.")


if __name__ == "__main__":
    main()
