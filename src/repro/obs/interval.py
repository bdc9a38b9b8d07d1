"""Windowed stat snapshots: every counter becomes a time series.

The simulator advances the recorder by the *timed* accesses it has run,
cutting its runs at window boundaries.  At each boundary the recorder
diffs the cumulative :class:`StatRegistry` snapshot (and the timing
model's cycle/instruction totals) against the previous boundary,
yielding per-window deltas.  A trailing partial window is flushed by
:meth:`finish`, so a run of ``A`` accesses with window ``W`` produces
exactly ``ceil(A / W)`` snapshots.

Deltas — not cumulative values — are stored because phase behavior
(warm-up transients, working-set shifts) only shows in the derivative;
cumulative curves flatten everything into the average the aggregate
counters already report.
"""

from __future__ import annotations

from typing import Dict, List


class IntervalRecorder:
    """Accumulates per-window deltas of counters, cycles and instructions."""

    def __init__(self, registry, timing, interval: int) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self._registry = registry
        self._timing = timing
        self.snapshots: List[Dict[str, object]] = []
        self._in_window = 0
        self._prev_counters = registry.snapshot()
        self._prev_cycles = timing.total_cycles()
        self._prev_instructions = timing.acct.instructions

    def advance(self, accesses: int) -> None:
        """Account ``accesses`` timed accesses; snapshot when the window
        fills.  They must not carry past the window's end."""
        in_window = self._in_window + accesses
        if in_window > self.interval:
            raise ValueError(f"{accesses} accesses overrun the window: "
                             f"{self.interval - self._in_window} left")
        self._in_window = in_window
        if in_window == self.interval:
            self._snap()

    def finish(self) -> None:
        """Flush a trailing partial window (if any)."""
        if self._in_window:
            self._snap()

    def _snap(self) -> None:
        counters = self._registry.snapshot()
        cycles = self._timing.total_cycles()
        instructions = self._timing.acct.instructions
        delta: Dict[str, Dict[str, int]] = {}
        for group, now in counters.items():
            prev = self._prev_counters.get(group, {})
            group_delta = {k: v - prev.get(k, 0) for k, v in now.items()}
            if any(group_delta.values()):
                delta[group] = {k: v for k, v in group_delta.items() if v}
        dc = cycles - self._prev_cycles
        di = instructions - self._prev_instructions
        self.snapshots.append({
            "index": len(self.snapshots),
            "accesses": self._in_window,
            "instructions": di,
            "cycles": dc,
            "ipc": di / dc if dc > 0 else 0.0,
            "counters": delta,
        })
        self._prev_counters = counters
        self._prev_cycles = cycles
        self._prev_instructions = instructions
        self._in_window = 0

    def series(self, group: str, counter: str) -> List[int]:
        """Extract one counter's per-window deltas across all snapshots."""
        return [s["counters"].get(group, {}).get(counter, 0)
                for s in self.snapshots]
