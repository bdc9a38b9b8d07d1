"""Ablations of the paper's design choices.

Three studies backing specific decisions in the paper:

1. **Dual-granularity synonym filter** (Section III-B, Figure 3): the
   AND of a 16 MB-grain and a 32 KB-grain filter yields far fewer false
   positives than either filter alone under sharing-heavy stress.
2. **Segment cache size** (Section IV-C): the 128-entry SC captures most
   of the delayed-translation latency win; far smaller SCs leave cycles
   on the table, far bigger ones add little (diminishing returns).
3. **Eager vs. reservation-based allocation** (Section IV-B): eager
   allocation minimizes segments but wastes untouched memory;
   reservation-based allocation recovers the waste at the cost of more
   segments — the paper's stated trade-off.
"""

from __future__ import annotations

import pytest

from repro.common.address import PAGE_SIZE
from repro.common.params import SegmentTranslationConfig, SystemConfig
from repro.common.rng import make_rng
from repro.core import HybridMmu
from repro.filters import SynonymFilter
from repro.osmodel import FrameAllocator, Kernel, OsSegmentTable, SegmentAllocator
from repro.sim import Simulator, lay_out

from conftest import emit, run_once

MB = 1024 * 1024


# ---------------------------------------------------------------------- #
# 1. Filter granularity
# ---------------------------------------------------------------------- #

def measure_filter_ablation():
    """False-positive rates: fine-only vs. coarse-only vs. dual (AND)."""
    rng = make_rng(7)
    filt = SynonymFilter()
    # Stress: 300 shared pages scattered over a wide mmap area (content
    # sharing spread across many 16 MB regions defeats the coarse filter
    # alone; many 32 KB regions load the fine filter).
    for _ in range(300):
        filt.mark_shared(0x7F00_0000_0000 + rng.randrange(0, 1 << 38) & ~0xFFF)
    probes = [0x1000_0000 + rng.randrange(0, 1 << 33) & ~0x7
              for _ in range(20_000)]
    fine_fp = sum(filt.fine.query(va) for va in probes) / len(probes)
    coarse_fp = sum(filt.coarse.query(va) for va in probes) / len(probes)
    dual_fp = sum(filt.is_synonym_candidate(va) for va in probes) / len(probes)
    return {"fine_only": fine_fp, "coarse_only": coarse_fp, "dual": dual_fp}


# ---------------------------------------------------------------------- #
# 2. Segment cache size
# ---------------------------------------------------------------------- #

def measure_sc_sweep():
    """Average delayed-translation cycles vs. SC capacity on GUPS."""
    import dataclasses

    results = {}
    for entries in (0, 16, 128, 1024):
        system = SystemConfig()
        if entries:
            system = dataclasses.replace(
                system,
                segments=dataclasses.replace(system.segments,
                                             segment_cache_entries=entries))
        kernel = Kernel(system)
        workload = lay_out("gups", kernel)
        mmu = HybridMmu(kernel, system, delayed="segments",
                        use_segment_cache=bool(entries))
        Simulator(mmu).run(workload, accesses=15_000, warmup=10_000,
                           reset_stats_after_warmup=True)
        translator = mmu.delayed.translator
        translations = translator.stats["translations"]
        sc_hits = translator.stats["sc_hits"]
        results[entries] = {
            "sc_hit_rate": sc_hits / translations if translations else 0.0,
            "full_walks": translator.stats["full_walks"],
        }
    return results


# ---------------------------------------------------------------------- #
# 3. Eager vs. reservation-based allocation
# ---------------------------------------------------------------------- #

def measure_allocation_policies():
    """memcached-style sparse usage under both allocation policies."""
    rng = make_rng(3)
    request = 64 * MB
    chunk = SegmentAllocator.RESERVATION_CHUNK
    # Sparse touch pattern: ~40 % of 2 MB chunks ever used.
    touched_chunks = sorted(rng.sample(range(request // chunk),
                                       k=int(0.4 * request // chunk)))

    def eager():
        frames = FrameAllocator(256 * MB)
        table = OsSegmentTable(SegmentTranslationConfig().segment_table_entries)
        alloc = SegmentAllocator(1, table, frames)
        vbase, _segments = alloc.allocate(request)
        for chunk_index in touched_chunks:
            va = vbase + chunk_index * chunk
            table.find(1, va).touch(va)
            # Touch one page per 2 MB chunk is enough for page counting;
            # touch them all for honest utilization numbers.
            for page in range(0, chunk, PAGE_SIZE):
                table.find(1, va + page).touch(va + page)
        return table.live_count(), table.utilization()

    def reservation():
        frames = FrameAllocator(256 * MB)
        table = OsSegmentTable(SegmentTranslationConfig().segment_table_entries)
        alloc = SegmentAllocator(1, table, frames)
        vbase, _length = alloc.reserve(request)
        for chunk_index in touched_chunks:
            base = vbase + chunk_index * chunk
            for page in range(0, chunk, PAGE_SIZE):
                seg = alloc.touch_reserved(base + page)
                seg.touch(base + page)
        return table.live_count(), table.utilization()

    eager_segments, eager_usage = eager()
    reserved_segments, reserved_usage = reservation()
    return {
        "eager": {"segments": eager_segments, "usage": eager_usage},
        "reservation": {"segments": reserved_segments,
                        "usage": reserved_usage},
    }


@pytest.mark.benchmark(group="ablations")
def test_filter_granularity_ablation(benchmark, report):
    rates = run_once(benchmark, measure_filter_ablation)
    emit(report, "\nAblation 1 — synonym-filter false positives under stress")
    for label, rate in rates.items():
        emit(report, f"  {label:<12} {100 * rate:6.2f}%")
    # The AND of the two granularities beats either filter alone.
    assert rates["dual"] <= rates["fine_only"]
    assert rates["dual"] <= rates["coarse_only"]
    assert rates["dual"] < 0.05


@pytest.mark.benchmark(group="ablations")
def test_segment_cache_size_ablation(benchmark, report):
    sweep = run_once(benchmark, measure_sc_sweep)
    emit(report, "\nAblation 2 — segment-cache capacity (GUPS)")
    for entries, row in sweep.items():
        emit(report, f"  SC={entries:<5} hit={100 * row['sc_hit_rate']:5.1f}% "
                     f"full walks={row['full_walks']}")
    # Bigger SCs hit more; the paper's 128 entries already capture the
    # bulk of the benefit on a 2 MB-granularity-friendly footprint.
    assert sweep[16]["sc_hit_rate"] <= sweep[128]["sc_hit_rate"] + 0.01
    assert sweep[128]["sc_hit_rate"] > 0.85
    assert sweep[1024]["sc_hit_rate"] - sweep[128]["sc_hit_rate"] < 0.10


def measure_serial_vs_parallel():
    """Section IV-C: serial+SC (paper's pick) vs. parallel-with-LLC."""
    results = {}
    for label, kwargs in (
        ("serial+SC", dict(parallel_delayed=False, use_segment_cache=True)),
        ("parallel+SC", dict(parallel_delayed=True, use_segment_cache=True)),
        ("serial,noSC", dict(parallel_delayed=False,
                             use_segment_cache=False)),
        ("parallel,noSC", dict(parallel_delayed=True,
                               use_segment_cache=False)),
    ):
        system = SystemConfig()
        kernel = Kernel(system)
        workload = lay_out("gups", kernel)
        mmu = HybridMmu(kernel, system, delayed="segments", **kwargs)
        result = Simulator(mmu).run(workload, accesses=12_000, warmup=8_000,
                                    reset_stats_after_warmup=True)
        wasted = mmu.hybrid_stats["wasted_parallel_translations"]
        results[label] = {"ipc": result.ipc, "wasted_translations": wasted}
    return results


@pytest.mark.benchmark(group="ablations")
def test_serial_vs_parallel_delayed_ablation(benchmark, report):
    rows = run_once(benchmark, measure_serial_vs_parallel)
    emit(report, "\nAblation 4 — serial vs. parallel delayed translation "
                 "(GUPS)")
    for label, row in rows.items():
        emit(report, f"  {label:<14} ipc={row['ipc']:.4f} "
                     f"wasted translations={row['wasted_translations']}")
    # Parallel hides latency: at least as fast as serial for the same SC
    # setting...
    assert rows["parallel+SC"]["ipc"] >= rows["serial+SC"]["ipc"] - 1e-6
    assert rows["parallel,noSC"]["ipc"] >= rows["serial,noSC"]["ipc"] - 1e-6
    # ...but wastes speculative translations on LLC hits (the energy cost
    # that made the paper choose serial + segment cache).
    assert rows["parallel+SC"]["wasted_translations"] > 0
    assert rows["serial+SC"]["wasted_translations"] == 0
    # The SC recovers most of what parallelism buys: the paper's pick is
    # within a whisker of the expensive option.
    assert rows["serial+SC"]["ipc"] > 0.95 * rows["parallel+SC"]["ipc"]


@pytest.mark.benchmark(group="ablations")
def test_allocation_policy_ablation(benchmark, report):
    policies = run_once(benchmark, measure_allocation_policies)
    emit(report, "\nAblation 3 — eager vs. reservation-based allocation")
    for label, row in policies.items():
        emit(report, f"  {label:<12} segments={row['segments']:<4} "
                     f"usage={100 * row['usage']:5.1f}%")
    eager, reservation = policies["eager"], policies["reservation"]
    # Eager: fewest segments, poor utilization on sparse use.
    assert eager["segments"] <= 2
    assert eager["usage"] < 0.5
    # Reservation: full utilization of what exists, but more segments.
    assert reservation["usage"] > 0.99
    assert reservation["segments"] > eager["segments"]
