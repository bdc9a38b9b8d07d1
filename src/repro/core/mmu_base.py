"""Common interface for the MMU front-ends compared in the paper.

Every MMU flavour (physical baseline, hybrid virtual caching with delayed
TLB or many-segment translation, ideal TLB) exposes one entry point:

    outcome = mmu.access(core, asid, va, is_write)

and returns a plain tuple ``(front_cycles, cache_cycles, delayed_cycles,
dram_cycles, hit_level, translated_pa)`` that decomposes the access into
the phases the paper's timing argument is about:

* ``front_cycles``    — translation cycles *blocking* the L1 access
  (the baseline's TLB-miss walks live here; the hybrid's non-synonym path
  charges zero here);
* ``cache_cycles``    — hierarchy probe latency down to the hit level;
* ``delayed_cycles``  — translation performed *after* an LLC miss
  (delayed TLB / many-segment walk; serial with the LLC per Section IV-C's
  energy-conscious design choice);
* ``dram_cycles``     — main-memory access time on an LLC miss;
* ``hit_level``       — the level that served the data (``"memory"`` on
  an LLC miss);
* ``translated_pa``   — the physical (machine) address the access used.

No layer builds an object per access: the MMU, its walkers and its
lookups hand plain tuples upward.  :class:`AccessOutcome` is the named
view of the outcome tuple (``AccessOutcome._make(outcome)``) for tests,
examples and analysis.

The cycle model in ``repro.timing`` combines these with per-workload MLP.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.address import physical_block_key
from repro.common.params import SystemConfig
from repro.common.stats import StatRegistry
from repro.obs.histogram import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.osmodel.kernel import Kernel
from repro.timing.dram import DramModel


#: What ``MmuBase.access`` returns: (front_cycles, cache_cycles,
#: delayed_cycles, dram_cycles, hit_level, translated_pa).
Outcome = Tuple[int, int, int, int, str, Optional[int]]


class AccessOutcome(NamedTuple):
    """Named view of one access's outcome tuple, phase by phase.

    ``MmuBase.access`` returns the plain tuple; ``AccessOutcome._make``
    names its fields where a reader wants them.
    """

    front_cycles: int
    cache_cycles: int
    delayed_cycles: int
    dram_cycles: int
    hit_level: str
    translated_pa: Optional[int] = None

    @property
    def total_cycles(self) -> int:
        return (self.front_cycles + self.cache_cycles
                + self.delayed_cycles + self.dram_cycles)

    @property
    def llc_miss(self) -> bool:
        return self.hit_level == "memory"


class MmuBase:
    """Shared datapath plumbing: caches, DRAM, kernel, stat registry."""

    name = "base"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or kernel.config
        self.stats = StatRegistry()
        self.caches = CacheHierarchy(self.config)
        self.dram = DramModel(self.config.dram)
        self.stats.register(self.caches.stats)
        self.stats.register(self.dram.stats)
        self._accesses = 0
        self.tracer = NULL_TRACER
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Observability plumbing
    # ------------------------------------------------------------------ #

    def attach_tracer(self, tracer) -> None:
        """Install a tracer on this MMU and its cache hierarchy.

        Pass :data:`repro.obs.tracer.NULL_TRACER` to detach; the null
        tracer keeps every probe site to one attribute check.
        """
        self.tracer = tracer
        self.caches.tracer = tracer

    def register_histogram(self, histogram: Histogram) -> Histogram:
        """Adopt a structure-owned histogram into this MMU's result set."""
        self._histograms[histogram.name] = histogram
        return histogram

    def histograms(self) -> dict:
        """Every registered histogram, keyed by name."""
        return dict(self._histograms)

    def histogram_snapshots(self) -> dict:
        """JSON-ready snapshots of every non-empty registered histogram."""
        return {name: h.snapshot() for name, h in self.histograms().items()
                if h.count}

    # ------------------------------------------------------------------ #
    # Helpers shared by subclasses
    # ------------------------------------------------------------------ #

    def charge_physical_read(self, core: int, pa: int) -> int:
        """Route a hardware metadata read (PTE, tree node) through the
        cache hierarchy under its physical key; returns cycles."""
        hit_level, cycles, _ = self.caches.access(core, physical_block_key(pa),
                                                  False)
        if hit_level == "memory":
            cycles += self.dram.access(pa, is_write=False)
        return cycles

    def physical_access(self, core: int, pa: int, is_write: bool,
                        front: int) -> Outcome:
        """The data access of a physically addressed MMU: probe the caches
        under ``pa``'s physical key, then DRAM on an LLC miss.

        Returns the outcome tuple, with ``front`` cycles of translation
        before the L1 and none after the LLC.
        """
        hit_level, cache_cycles, _ = self.caches.access(
            core, physical_block_key(pa), is_write)
        dram = self.dram.access(pa, is_write) if hit_level == "memory" else 0
        return front, cache_cycles, 0, dram, hit_level, pa

    def access(self, core: int, asid: int, va: int, is_write: bool) -> Outcome:
        raise NotImplementedError

    @property
    def accesses(self) -> int:
        return self._accesses

    def snapshot(self) -> dict:
        """All component counters (reporting / energy accounting)."""
        return self.stats.snapshot()
