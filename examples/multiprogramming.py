#!/usr/bin/env python
"""Multiprogramming: context switches and per-process filter state.

Four workloads time-share two cores under the hybrid design.  Each
context switch charges the OS path plus the on-chip synonym-filter load
the paper describes (two 1K-bit Bloom filters read from memory,
Section III-B).  ASID-tagged TLBs, caches, and filters mean no structure
is flushed on a switch — the point of the 16-bit ASID.
"""

import dataclasses

from repro.common.params import SystemConfig
from repro.core import ConventionalMmu, HybridMmu
from repro.osmodel import Kernel
from repro.sim import lay_out
from repro.sim.scheduler import ScheduledSimulator

NAMES = ("postgres", "omnetpp", "astar", "stream")
ACCESSES = 4_000


def run(mmu_cls, label):
    config = dataclasses.replace(SystemConfig(), cores=2)
    kernel = Kernel(config)
    workloads = [lay_out(name, kernel, seed=3 + i)
                 for i, name in enumerate(NAMES)]
    mmu = mmu_cls(kernel, config)
    sim = ScheduledSimulator(mmu, workloads, quantum=1000)
    result = sim.run(accesses_per_workload=ACCESSES)
    print(f"\n-- {label} --")
    print(f"context switches: {result.context_switches}, "
          f"switch overhead: {result.switch_cycles:.0f} cycles "
          f"({result.switch_cycles / result.total_cycles:.2%} of runtime)")
    for name, r in result.per_workload.items():
        print(f"  {name:<10} ipc={r.ipc:.4f}")
    print(f"aggregate IPC: {result.aggregate_ipc():.4f}")
    return result


def main() -> None:
    print("=== 4 workloads on 2 cores, round-robin quanta ===")
    conventional = run(ConventionalMmu, "conventional baseline")
    hybrid = run(HybridMmu, "hybrid virtual caching")
    per_switch_delta = (hybrid.switch_cycles / hybrid.context_switches
                        - conventional.switch_cycles
                        / conventional.context_switches)
    print(f"\nfilter-load cost per switch (hybrid extra): "
          f"{per_switch_delta:.0f} cycles")
    speedup = hybrid.aggregate_ipc() / conventional.aggregate_ipc()
    print(f"hybrid aggregate speedup: {speedup:.3f}x "
          f"(filter loads are noise next to the TLB wins)")


if __name__ == "__main__":
    main()
