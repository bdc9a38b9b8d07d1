"""Translation-energy accounting over simulation statistics.

Consumes the per-structure event counts that every simulated component
already records and multiplies by the per-access energies of
:class:`EnergyParams`.  The headline reproduction target is the paper's
~60 % reduction in translation-component power for the hybrid design,
driven by the near-total bypass of per-access TLB probes.
"""

from __future__ import annotations

from typing import Dict

from repro.energy.params import EnergyParams


class EnergyModel:
    """Maps a stats snapshot to a translation-energy breakdown (pJ)."""

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params or EnergyParams()

    # ------------------------------------------------------------------ #
    # Per-configuration breakdowns
    # ------------------------------------------------------------------ #

    def baseline_translation_energy(self, stats: Dict[str, Dict[str, int]],
                                    cores: int = 1,
                                    instruction_fetches: int = 0) -> Dict[str, float]:
        """Conventional MMU: every access probes the L1 TLB, misses cascade.

        ``instruction_fetches`` adds the I-side probes the paper counts
        ("TLBs ... are accessed for every instruction fetch and data
        access"); the simulator folds the I-side into the data path, so
        the caller passes the instruction count explicitly (I-TLB fetch
        probes hit essentially always and are charged at L1-TLB cost).
        """
        p = self.params
        breakdown = {"l1_tlb": 0.0, "l2_tlb": 0.0, "page_walks": 0.0,
                     "itlb": instruction_fetches * p.l1_tlb_pj}
        for core in range(cores):
            l1 = stats.get(f"tlb_core{core}_l1", {})
            l2 = stats.get(f"tlb_core{core}_l2", {})
            breakdown["l1_tlb"] += l1.get("lookups", 0) * p.l1_tlb_pj
            breakdown["l2_tlb"] += l2.get("lookups", 0) * p.l2_tlb_pj
        breakdown["page_walks"] += sum(
            group.get("pte_reads", 0)
            for name, group in stats.items() if "walker" in name
        ) * p.pte_read_pj
        return breakdown

    def hybrid_translation_energy(self, stats: Dict[str, Dict[str, int]],
                                  filter_lookups: int = 0,
                                  instruction_fetches: int = 0) -> Dict[str, float]:
        """Hybrid MMU: filter probes + synonym TLB + delayed structures.

        ``filter_lookups`` is supplied by the caller because synonym
        filters are per-process OS state, not MMU-owned structures; every
        access probes one, so the hybrid access count is the usual value.
        ``instruction_fetches`` adds the I-side filter probes (code pages
        are non-synonyms, so fetches bypass the TLBs entirely and pay
        only the filter probe).
        """
        p = self.params
        hybrid = stats.get("hybrid", {})
        probes = (filter_lookups or hybrid.get("accesses", 0)) + instruction_fetches
        breakdown = {
            "synonym_filter": probes * p.synonym_filter_pj,
            "synonym_tlb": stats.get("synonym_tlb", {}).get("lookups", 0)
            * p.synonym_tlb_pj,
            "delayed_tlb": stats.get("delayed_tlb", {}).get("lookups", 0)
            * p.delayed_tlb_pj,
            "index_cache": stats.get("index_cache", {}).get("reads", 0)
            * p.index_cache_pj,
            "segment_table": stats.get("hw_segment_table", {}).get("reads", 0)
            * p.segment_table_pj,
            "segment_cache": stats.get("segment_cache", {}).get("lookups", 0)
            * p.segment_cache_pj,
            "page_walks": sum(
                group.get("pte_reads", 0)
                for name, group in stats.items() if "walker" in name
            ) * p.pte_read_pj,
        }
        return breakdown

    def tag_extension_energy(self, stats: Dict[str, Dict[str, int]],
                             cores: int = 1) -> float:
        """Extra dynamic energy from the widened tags on every cache access."""
        p = self.params
        total = 0.0
        for core in range(cores):
            total += stats.get(f"l1_core{core}", {}).get("lookups", 0) * p.l1_cache_pj
            total += stats.get(f"l2_core{core}", {}).get("lookups", 0) * p.l2_cache_pj
        total += stats.get("llc", {}).get("lookups", 0) * p.llc_cache_pj
        return total * p.tag_extension_overhead

    # ------------------------------------------------------------------ #
    # Static (leakage) energy over a run
    # ------------------------------------------------------------------ #

    def baseline_static_energy(self, cycles: float, cores: int = 1) -> float:
        """Leakage of the baseline's translation structures over a run."""
        p = self.params
        per_cycle = cores * (p.l1_tlb_static_pj + p.l2_tlb_static_pj)
        return per_cycle * cycles

    def hybrid_static_energy(self, cycles: float, cores: int = 1,
                             segments: bool = True) -> float:
        """Leakage of the hybrid design's translation structures.

        Per-core: synonym TLB + on-chip filter copy.  Shared: the delayed
        TLB, or (``segments``) the index cache + segment table + SC.
        Includes the widened cache tags' static overhead.
        """
        p = self.params
        per_cycle = cores * (p.synonym_tlb_static_pj
                             + p.synonym_filter_static_pj)
        if segments:
            per_cycle += (p.index_cache_static_pj + p.segment_table_static_pj
                          + p.segment_cache_static_pj)
        else:
            per_cycle += p.delayed_tlb_static_pj
        per_cycle += p.cache_static_pj * p.tag_extension_static_overhead
        return per_cycle * cycles

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    @staticmethod
    def total(breakdown: Dict[str, float]) -> float:
        return sum(breakdown.values())

    def reduction(self, baseline: Dict[str, float],
                  proposed: Dict[str, float],
                  proposed_extra: float = 0.0) -> float:
        """Fractional translation-energy reduction (the paper's −60 %)."""
        base_total = self.total(baseline)
        if base_total <= 0:
            return 0.0
        return 1.0 - (self.total(proposed) + proposed_extra) / base_total
