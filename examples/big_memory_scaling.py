#!/usr/bin/env python
"""Big-memory scaling: why fixed-granularity delayed TLBs are not enough.

Reproduces the paper's Section IV argument in miniature:

1. sweep the delayed TLB from 1K to 32K entries on a TLB-hostile workload
   (GUPS) and a locality-bearing one (omnetpp) — GUPS barely improves;
2. switch GUPS to many-segment delayed translation — misses collapse
   because three segments cover the entire footprint;
3. show the memcached allocation profile creating hundreds of segments
   and the 32-entry RMM range TLB thrashing on it, while the 2048-entry
   delayed segment table absorbs it.
"""

from repro.common import SystemConfig, mpki
from repro.osmodel import Kernel
from repro.segtrans.rmm import RangeTlb
from repro.sim import lay_out, run_workload
from repro.sim.sweep import sweep_grid

ACCESSES = 25_000
WARMUP = 8_000


def sweep_section() -> None:
    print("-- delayed TLB size sweep (misses per kilo-instruction) --")
    sizes = (1024, 4096, 16384, 32768)
    header = "  ".join(f"{s // 1024}K".rjust(7) for s in sizes)
    print(f"{'workload':<10} {header}")
    for name in ("gups", "omnetpp"):
        rows = sweep_grid(name, "hybrid_tlb",
                          {"delayed_tlb.entries": list(sizes)},
                          accesses=ACCESSES, warmup=WARMUP)
        row = "  ".join(
            f"{r['result'].tlb_mpki():7.2f}" for r in rows
        )
        print(f"{name:<10} {row}")


def segment_section() -> None:
    print("\n-- many-segment translation on GUPS --")
    result = run_workload("gups", "hybrid_segments", ACCESSES, WARMUP)
    walks = result.counter("many_segment", "full_walks")
    sc_hits = result.counter("many_segment", "sc_hits")
    print(f"full segment walks: {walks}  "
          f"(MPKI {mpki(walks, result.instructions):.3f})")
    print(f"segment-cache hits: {sc_hits}")


def rmm_section() -> None:
    print("\n-- RMM (32 ranges) vs. many segments on memcached --")
    kernel = Kernel(SystemConfig())
    workload = lay_out("memcached", kernel)
    live = workload.live_segments()
    print(f"live segments after allocation: {live}")

    range_tlb = RangeTlb(kernel.segment_table, entries=32)
    instructions = 0
    stacks = workload.stack_vmas
    for record in workload.trace(ACCESSES):
        instructions += 1 + record.gap
        stack = stacks.get(record.asid)
        if stack is not None and stack.contains(record.va):
            continue  # the stack is demand-paged, not segment-backed
        range_tlb.lookup(record.asid, record.va)
    print(f"RMM range-TLB miss MPKI: "
          f"{mpki(range_tlb.miss_count(), instructions):.2f} "
          f"(hit rate {100 * range_tlb.stats.hit_rate():.1f}%)")
    print("the 2048-entry delayed segment table holds every segment; its "
          "only misses are cold.")


def main() -> None:
    print("=== Big-memory translation scaling ===\n")
    sweep_section()
    segment_section()
    rmm_section()


if __name__ == "__main__":
    main()
