"""Guest/host synonym-filter pair for virtualized systems (Section V-A).

Under virtualization two parties can create synonyms:

* the **guest OS** (classic shared mappings inside one VM), recorded in the
  *guest filter* exactly as in a native system, and
* the **hypervisor** (inter- or intra-VM sharing of machine frames, e.g.
  content-based page sharing), recorded in the *host filter*.

Both filters are indexed by the **guest virtual address**: the hypervisor
maintains a gPA→gVA inverse map per VM (see ``repro.virt.hypervisor``) so
it can translate a shared guest-physical frame into the guest-virtual
pages that name it.  A lookup probes both filters and reports a candidate
when **either** hits — exactly the paper's rule.
"""

from __future__ import annotations

from repro.common.params import SynonymFilterConfig
from repro.common.stats import StatGroup
from repro.filters.synonym_filter import SynonymFilter


class VirtualizedSynonymFilter:
    """Paired guest/host filters probed together with the guest VA."""

    def __init__(self, config: SynonymFilterConfig | None = None) -> None:
        self.config = config or SynonymFilterConfig()
        self.stats = StatGroup("virt_synonym_filter")
        self.guest = SynonymFilter(self.config)
        self.host = SynonymFilter(self.config)

    def mark_guest_shared(self, gva: int) -> None:
        """Guest OS marks a guest-virtual page as a synonym."""
        self.guest.mark_shared(gva)

    def mark_host_shared(self, gva: int) -> None:
        """Hypervisor marks a guest-virtual page whose backing frame it shared."""
        self.host.mark_shared(gva)

    def is_synonym_candidate(self, gva: int) -> bool:
        """Candidate when either the guest or the host filter reports a hit."""
        counts = self.stats.counts
        counts["lookups"] += 1
        candidate = (self.guest.is_synonym_candidate(gva)
                     or self.host.is_synonym_candidate(gva))
        if candidate:
            counts["candidates"] += 1
        return candidate

    def switch_guest_process(self, fine_bits: int, coarse_bits: int) -> None:
        """Guest context switch: the guest OS swaps only the guest filter."""
        self.guest.load_state_bits(fine_bits, coarse_bits)
        self.stats.add("guest_switches")

    def switch_vm(self, fine_bits: int, coarse_bits: int) -> None:
        """VM context switch: the hypervisor swaps only the host filter."""
        self.host.load_state_bits(fine_bits, coarse_bits)
        self.stats.add("vm_switches")
