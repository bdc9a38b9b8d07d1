"""Analytic cycle model over per-access outcomes.

The paper runs MARSSx86 cycle-accurately; reproducing an OoO pipeline at
cycle fidelity in Python is infeasible at trace lengths that exercise TLB
reach (DESIGN.md §6).  Instead we use a standard analytic decomposition:

    cycles = instructions × base_CPI
           + Σ front_cycles                (translation blocking the L1)
           + Σ exposed memory stalls

where an access's memory stall is its cache + delayed-translation + DRAM
cycles beyond the pipelined L1 hit, discounted by the workload's
memory-level parallelism (independent misses overlap in the ROB/LSQ; a
pointer-chasing workload has MLP≈1, a streaming one MLP≈4+).  The same
model is applied to every MMU configuration, so relative performance —
what Figure 9 reports — reflects only where translation work happens and
how many misses each scheme takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.common.params import CoreConfig
from repro.obs.histogram import Histogram

if TYPE_CHECKING:  # avoid a circular import
    from repro.core.mmu_base import Outcome


@dataclass
class CycleAccounting:
    """Running totals for one simulated core/workload."""

    instructions: int = 0
    memory_accesses: int = 0
    front_stall_cycles: int = 0
    cache_stall_cycles: int = 0
    delayed_stall_cycles: int = 0
    dram_stall_cycles: int = 0

    def merge(self, other: "CycleAccounting") -> None:
        self.instructions += other.instructions
        self.memory_accesses += other.memory_accesses
        self.front_stall_cycles += other.front_stall_cycles
        self.cache_stall_cycles += other.cache_stall_cycles
        self.delayed_stall_cycles += other.delayed_stall_cycles
        self.dram_stall_cycles += other.dram_stall_cycles


class TimingModel:
    """Combines access outcomes into cycles / IPC."""

    #: Cache cycles of an access that the pipeline hides fully (an L1 hit).
    L1_HIT_PIPELINED_CYCLES = 4

    def __init__(self, core: CoreConfig | None = None, mlp: float = 1.0) -> None:
        self.core = core or CoreConfig()
        if mlp < 1.0:
            raise ValueError("MLP cannot be below 1")
        self.mlp = mlp
        self.acct = CycleAccounting()
        # Latency distributions over the timed window (log2 buckets).
        self.access_hist = Histogram("access_cycles")
        self.front_hist = Histogram("front_translation_cycles")
        self.delayed_hist = Histogram("delayed_translation_cycles")

    def account(self, outcomes: Iterable["Outcome"],
                instructions_between: int = 1) -> None:
        """Account memory accesses, each with the instructions preceding it.

        ``outcomes`` yields ``mmu.access`` outcome tuples (or their
        :class:`~repro.core.mmu_base.AccessOutcome` views); the simulator
        passes the list of one block's outcomes, so accounting runs as its
        own loop after the block's accesses.  The stall sums and the
        access histogram are kept in locals and written back once per
        call, also when ``outcomes`` raises.
        """
        pipelined = self.L1_HIT_PIPELINED_CYCLES
        access_counts = self.access_hist.counts
        front_record = self.front_hist.record
        delayed_record = self.delayed_hist.record
        n = front = cache = delayed = dram = total = 0
        try:
            for (front_cycles, cache_cycles, delayed_cycles, dram_cycles,
                 _level, _pa) in outcomes:
                n += 1
                front += front_cycles
                if cache_cycles > pipelined:
                    cache += cache_cycles - pipelined
                delayed += delayed_cycles
                dram += dram_cycles
                # Histogram.record inlined: a non-positive total lands in
                # bucket 0 and adds nothing.
                cycles = (front_cycles + cache_cycles + delayed_cycles
                          + dram_cycles)
                if cycles > 0:
                    access_counts[cycles.bit_length()] += 1
                    total += cycles
                else:
                    access_counts[0] += 1
                # Zero-cost stages are the common case; keep their
                # histograms to the accesses where the stage actually ran.
                if front_cycles:
                    front_record(front_cycles)
                if delayed_cycles:
                    delayed_record(delayed_cycles)
        finally:
            acct = self.acct
            acct.instructions += n * instructions_between
            acct.memory_accesses += n
            acct.front_stall_cycles += front
            acct.cache_stall_cycles += cache
            acct.delayed_stall_cycles += delayed
            acct.dram_stall_cycles += dram
            self.access_hist.count += n
            self.access_hist.total += total

    def record(self, outcome: "Outcome", instructions_between: int = 1) -> None:
        """Account one memory access plus the instructions preceding it."""
        self.account((outcome,), instructions_between)

    def record_compute(self, instructions: int) -> None:
        """Account trailing non-memory instructions."""
        self.acct.instructions += instructions

    # ------------------------------------------------------------------ #
    # Derived results
    # ------------------------------------------------------------------ #

    def total_cycles(self) -> float:
        acct = self.acct
        base = acct.instructions * self.core.base_cpi
        # Translation stalls that block the access path do not overlap.
        blocking = acct.front_stall_cycles
        # Miss stalls overlap across independent accesses (MLP discount).
        overlapped = (acct.cache_stall_cycles + acct.delayed_stall_cycles
                      + acct.dram_stall_cycles) / self.mlp
        return base + blocking + overlapped

    def ipc(self) -> float:
        cycles = self.total_cycles()
        if cycles <= 0:
            return 0.0
        return self.acct.instructions / cycles

    def cpi(self) -> float:
        if not self.acct.instructions:
            return 0.0
        return self.total_cycles() / self.acct.instructions

    def histograms(self) -> dict:
        """The model's latency histograms, keyed by name."""
        return {h.name: h for h in (self.access_hist, self.front_hist,
                                    self.delayed_hist)}

    def histogram_snapshots(self) -> dict:
        """JSON-ready snapshots of every non-empty histogram."""
        return {name: h.snapshot() for name, h in self.histograms().items()
                if h.count}

    def breakdown(self) -> dict:
        """Cycle components (for stacked-bar style reporting)."""
        acct = self.acct
        return {
            "base": acct.instructions * self.core.base_cpi,
            "translation_front": acct.front_stall_cycles,
            "cache": acct.cache_stall_cycles / self.mlp,
            "translation_delayed": acct.delayed_stall_cycles / self.mlp,
            "dram": acct.dram_stall_cycles / self.mlp,
        }
