"""Time-sliced multiprogramming with context-switch cost modeling.

The paper's synonym filters are OS state: "for each context switch, the
hardware registers for the starting addresses of the Bloom filters must
be set by the OS ... Setting the filter registers will invoke the core
to read the two Bloom filters from the memory and store them in the
on-chip filter storage" (Section III-B).  This module models exactly
that: several processes time-share fewer cores; every switch charges the
fixed OS path plus, on hybrid systems, the filter-load cost (two 1K-bit
reads from memory); TLB and cache state survives switches because every
structure is ASID-tagged (the 16-bit ASID exists precisely so context
switches need no flushes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.stats import StatGroup
from repro.core.hybrid import HybridMmu
from repro.core.mmu_base import MmuBase
from repro.sim.results import SimulationResult
from repro.sim.simulator import outcome_blocks
from repro.timing.model import TimingModel
from repro.workloads.spec import LaidOutWorkload


@dataclass(frozen=True)
class SwitchCosts:
    """Cycle costs of one context switch."""

    os_overhead: int = 1200        # save/restore, scheduler, kernel entry
    filter_load: int = 250         # two 1K-bit Bloom filters from memory
    page_table_pointer: int = 50   # CR3-equivalent write


@dataclass
class ScheduledResult:
    """Outcome of one multiprogrammed run."""

    per_workload: Dict[str, SimulationResult]
    context_switches: int
    switch_cycles: float
    total_cycles: float

    def aggregate_ipc(self) -> float:
        instructions = sum(r.instructions for r in self.per_workload.values())
        if self.total_cycles <= 0:
            return 0.0
        return instructions / self.total_cycles


class ScheduledSimulator:
    """Round-robin scheduler driving several workloads through one MMU.

    All workloads must be laid out on the MMU's kernel.  Each scheduling
    quantum runs one workload's next trace slice on its assigned core;
    at quantum boundaries the core's context switches to the next
    runnable workload, charging :class:`SwitchCosts` (plus the filter
    load only for hybrid MMUs, which are the ones with per-process
    on-chip filter state).
    """

    def __init__(self, mmu: MmuBase, workloads: List[LaidOutWorkload],
                 quantum: int = 2000) -> None:
        if not workloads:
            raise ValueError("at least one workload required")
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.mmu = mmu
        self.workloads = workloads
        self.quantum = quantum
        self.costs = SwitchCosts()
        self.stats = StatGroup("scheduler")

    def _switch_cost(self) -> int:
        cost = self.costs.os_overhead + self.costs.page_table_pointer
        if isinstance(self.mmu, HybridMmu):
            cost += self.costs.filter_load
        return cost

    def run(self, accesses_per_workload: int) -> ScheduledResult:
        """Run every workload for the given reference count, time-sliced."""
        cores = self.mmu.config.cores
        access = self.mmu.access
        timings: Dict[str, TimingModel] = {}
        streams = []
        for workload in self.workloads:
            timings[workload.spec.name] = TimingModel(self.mmu.config.core,
                                                      mlp=workload.spec.mlp)
            streams.append(workload.references(accesses_per_workload))
        remaining = [accesses_per_workload] * len(self.workloads)

        switch_cycles = 0.0
        switches = 0
        # Which workload each core last ran, to detect real switches.
        core_occupant: Dict[int, int] = {}
        slot = 0
        while any(remaining):
            index = slot % len(self.workloads)
            slot += 1
            if not remaining[index]:
                continue
            core = index % cores
            if core_occupant.get(core) != index:
                if core in core_occupant:
                    switches += 1
                    cost = self._switch_cost()
                    switch_cycles += cost
                    self.stats.add("context_switches")
                    self.stats.add("switch_cycles", cost)
                    self._load_filter_state(index)
                core_occupant[core] = index
            spec = self.workloads[index].spec
            budget = min(self.quantum, remaining[index])
            # The slice runs on the core it was scheduled to.
            refs = ((core, asid, va, is_write) for _core, asid, va, is_write
                    in streams[index])
            timing = timings[spec.name]
            for outcomes in outcome_blocks(access, refs, budget):
                timing.account(outcomes, 1 + spec.gap)
            remaining[index] -= budget

        per_workload = {}
        total = switch_cycles
        for workload in self.workloads:
            timing = timings[workload.spec.name]
            total += timing.total_cycles()
            per_workload[workload.spec.name] = SimulationResult(
                workload=workload.spec.name,
                mmu=self.mmu.name,
                instructions=timing.acct.instructions,
                accesses=timing.acct.memory_accesses,
                cycles=timing.total_cycles(),
                ipc=timing.ipc(),
                cycle_breakdown=timing.breakdown(),
                stats={},
            )
        return ScheduledResult(per_workload, switches, switch_cycles, total)

    def _load_filter_state(self, index: int) -> None:
        """Model the on-chip filter load at a hybrid context switch."""
        if not isinstance(self.mmu, HybridMmu):
            return
        for process in self.workloads[index].processes:
            # Round-trip through the raw-bit interface: this is the
            # memory image the OS hands the core's filter storage.
            fine, coarse = process.synonym_filter.state_bits()
            process.synonym_filter.load_state_bits(fine, coarse)
