"""Trace-driven simulation driver.

Wires a laid-out workload into an MMU front-end and a timing model:
each reference ``(core, asid, va, is_write)`` the workload's
:meth:`~repro.workloads.spec.LaidOutWorkload.references` yields becomes
one ``mmu.access`` call, and the timing model accounts the outcomes.  A
warm-up prefix exercises the structures without being timed (the paper
simulates 500 M–1 B instructions; our traces are shorter, so warm-up
matters proportionally more).

The stages run over blocks of up to :data:`BLOCK` references
(:func:`outcome_blocks`): the block's references are drawn into a list,
the MMU is mapped over that list, and the timing model accounts the
list of outcomes.  Each stage is its own loop: on perfbench's campaigns
(2-vCPU KVM guest) that simulated about 9 % more accesses per second
than pulling every reference through the generator, the MMU and the
accounting in turn.  The stream depends only on the seed and the
layout, never on the MMU, so drawing it ahead changes nothing the MMU
sees.

Observability (``repro.obs``) threads through here: an attached
:class:`~repro.obs.tracer.Tracer` records per-access pipeline events, an
``interval`` turns every stat counter into a windowed time series, and
each result carries a :class:`~repro.obs.manifest.RunManifest` plus the
latency histograms collected by the timing model and the MMU.  None of
it is checked per access: a block never crosses a window or pulse
boundary, so windows and pulses see the counters as the boundary's
last access leaves them, and a live tracer wraps the access call.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from itertools import islice, starmap
from typing import Iterator, List, Optional, Tuple

from repro.core.mmu_base import MmuBase, Outcome
from repro.obs.interval import IntervalRecorder
from repro.obs.manifest import RunManifest
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.results import SimulationResult
from repro.timing.model import TimingModel
from repro.workloads.spec import LaidOutWorkload


#: References per block; a window or pulse boundary ends a block early.
BLOCK = 256


def outcome_blocks(access, refs: Iterator[Tuple[int, int, int, bool]],
                   count: int) -> Iterator[List[Outcome]]:
    """Run the next ``count`` references of ``refs`` through ``access``,
    yielding the outcomes of up to :data:`BLOCK` references at a time.

    Each block is drawn into a list first and then mapped through
    ``access``, so the generator and the MMU each run as their own loop.
    """
    while count > 0:
        block = list(islice(refs, min(count, BLOCK)))
        count -= BLOCK
        yield list(starmap(access, block))


def _traced(access, tracer: Tracer, timed: bool):
    """``access`` between the tracer's ``begin_access`` and ``end_access``."""
    begin_access = tracer.begin_access
    end_access = tracer.end_access

    def traced_access(core: int, asid: int, va: int,
                      is_write: bool) -> Outcome:
        begin_access(core, asid, va, is_write)
        outcome = access(core, asid, va, is_write)
        end_access(outcome, timed=timed)
        return outcome
    return traced_access


class Simulator:
    """Drives one workload through one MMU configuration.

    Each run accounts cycles with a fresh :class:`TimingModel` of the
    MMU's ``config.core`` and the workload's MLP.
    """

    def __init__(self, mmu: MmuBase) -> None:
        self.mmu = mmu

    def run(self, workload: LaidOutWorkload, accesses: int,
            warmup: int = 0, seed: Optional[int] = None,
            reset_stats_after_warmup: bool = False,
            interval: Optional[int] = None,
            tracer: Optional[Tracer] = None,
            pulse=None) -> SimulationResult:
        """Simulate ``accesses`` timed references after ``warmup`` untimed ones.

        With ``reset_stats_after_warmup`` the structure counters are
        zeroed once warm-up completes, so reported hit/miss statistics
        describe steady state only (the paper's methodology: counters
        over a detailed window after fast-forwarding).  Structure *state*
        (cache/TLB contents) is kept either way.

        ``interval`` (timed accesses per window) records delta snapshots
        of every counter, yielding ``ceil(accesses / interval)`` windows
        that together cover the timed accesses only.
        ``tracer`` records the run's pipeline events; tracing never
        alters simulated behavior, only records it.

        ``pulse`` is the live-telemetry hook: a callable with an
        ``every`` attribute (e.g. :class:`~repro.obs.heartbeat.
        HeartbeatPulse`) invoked as ``pulse(done, total, instructions,
        cycles)`` every ``pulse.every`` timed accesses.  Pulses are rare,
        so live progress never perturbs the simulation.

        The warm-up and the timed accesses run in blocks of up to
        :data:`BLOCK` references (:func:`outcome_blocks`): each block is
        drawn, then mapped through ``mmu.access``, then (once timed)
        accounted, each stage as its own loop.  A block ends early at
        the next window or pulse boundary.
        """
        spec = workload.spec
        mmu = self.mmu
        timing = TimingModel(mmu.config.core, mlp=spec.mlp)
        refs = workload.references(warmup + accesses, seed=seed)

        if tracer is None:
            tracer = NULL_TRACER
        warmup_access = timed_access = mmu.access
        if tracer.active:
            mmu.attach_tracer(tracer)
            warmup_access = _traced(mmu.access, tracer, timed=False)
            timed_access = _traced(mmu.access, tracer, timed=True)
        pulse_every = getattr(pulse, "every", 0) if pulse is not None else 0
        started_at = datetime.now(timezone.utc).isoformat()
        t0 = time.perf_counter()

        for _outcomes in outcome_blocks(warmup_access, refs, warmup):
            pass
        if reset_stats_after_warmup:
            mmu.stats.reset()
        # Windows diff against the counters as the timed phase starts.
        recorder = (IntervalRecorder(mmu.stats, timing, interval)
                    if interval else None)
        instructions_between = 1 + spec.gap
        done = 0
        while done < accesses:
            step = accesses - done
            if recorder is not None:
                step = min(step, interval - done % interval)
            if pulse_every > 0:
                step = min(step, pulse_every - done % pulse_every)
            for outcomes in outcome_blocks(timed_access, refs, step):
                timing.account(outcomes, instructions_between)
            done += step
            if recorder is not None:
                recorder.advance(step)
            if pulse_every > 0 and done % pulse_every == 0:
                pulse(done, accesses, timing.acct.instructions,
                      timing.total_cycles())

        if recorder is not None:
            recorder.finish()
        if tracer.active:
            mmu.attach_tracer(NULL_TRACER)

        manifest = RunManifest.collect(
            workload=spec.name, mmu=mmu.name, config=mmu.config,
            seed=seed, accesses=accesses, warmup=warmup,
            started_at=started_at, duration_s=time.perf_counter() - t0)
        histograms = dict(timing.histogram_snapshots())
        histograms.update(mmu.histogram_snapshots())

        return SimulationResult(
            workload=spec.name,
            mmu=mmu.name,
            instructions=timing.acct.instructions,
            accesses=timing.acct.memory_accesses,
            cycles=timing.total_cycles(),
            ipc=timing.ipc(),
            cycle_breakdown=timing.breakdown(),
            stats=mmu.snapshot(),
            manifest=manifest,
            interval=interval,
            intervals=list(recorder.snapshots) if recorder is not None else [],
            histograms=histograms,
        )
