"""Bank/row-buffer DRAM model (DDR3-1600-like, Table IV).

A deliberately small model in the DRAMSim2 role: per-bank open-row
tracking gives row-buffer hits ~22 ns and conflicts ~52 ns (expressed in
3.4 GHz core cycles), plus a flat queueing penalty.  Address interleaving
maps consecutive rows across banks so streaming workloads enjoy bank
parallelism while random-access workloads (GUPS) pay conflict latency —
the first-order behaviour the paper's relative results depend on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.params import DramConfig
from repro.common.stats import StatGroup


class DramModel:
    """Open-page DRAM with per-bank row buffers."""

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()
        self.stats = StatGroup("dram")
        self._counts = self.stats.counts
        total_banks = self.config.channels * self.config.banks
        self._open_rows: List[Optional[int]] = [None] * total_banks
        self._total_banks = total_banks
        self._row_shift = (self.config.row_bytes - 1).bit_length()

    def _locate(self, pa: int) -> tuple[int, int]:
        row = pa >> self._row_shift
        bank = row % self._total_banks
        return bank, row

    def access(self, pa: int, is_write: bool) -> int:
        """Access one block; returns cycles and updates the open row."""
        bank, row = self._locate(pa)
        counts = self._counts
        counts["accesses"] += 1
        if is_write:
            counts["writes"] += 1
        if self._open_rows[bank] == row:
            counts["row_hits"] += 1
            cycles = self.config.row_hit_cycles
        else:
            counts["row_misses"] += 1
            cycles = self.config.row_miss_cycles
            self._open_rows[bank] = row
        return cycles + self.config.queue_penalty_cycles

    def row_hit_rate(self) -> float:
        return self.stats.ratio("row_hits", "accesses")

    def reset_rows(self) -> None:
        """Close all rows (rank power-down / experiment isolation)."""
        self._open_rows = [None] * self._total_banks
