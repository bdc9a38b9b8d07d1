"""Hypervisor model: VMs, guest-physical→machine mapping, page sharing.

Each :class:`VirtualMachine` owns a complete guest :class:`Kernel` whose
"physical" space is the guest-physical (gPA) space.  The hypervisor backs
each VM's gPA space with machine memory two ways at once, mirroring the
paper's Section V:

* a **host page table** (4-level radix over gPA) for page-based 2-D
  walks, populated on first touch of each guest-physical page;
* **host segments** — large contiguous machine extents covering the gPA
  space — for segment-based 2-D delayed translation.  The hypervisor
  cannot promise one machine extent per guest request, so a VM's memory
  may be served by several host segments.

The hypervisor also implements **content-based page sharing**: it can
fold two guest-physical pages onto one machine frame read-only, and uses
its per-VM gPA→gVA inverse map to mark the affected *guest-virtual*
pages in the VM's host synonym filter (Section V-A) — or, exploiting the
r/o property, leave them virtually addressed (Section III-D).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.address import PAGE_SHIFT, PAGE_SIZE, page_base
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.filters.synonym_filter import SynonymFilter
from repro.osmodel.frames import FrameAllocator
from repro.osmodel.kernel import Kernel
from repro.osmodel.pagetable import PERM_READ, PERM_RW, PageFault, PageTable


@dataclass(slots=True)
class HostSegment:
    """One contiguous gPA→MA mapping."""

    gpa_base: int
    length: int
    ma_base: int

    @property
    def offset(self) -> int:
        return self.ma_base - self.gpa_base

    def contains(self, gpa: int) -> bool:
        return self.gpa_base <= gpa < self.gpa_base + self.length


class VirtualMachine:
    """A guest kernel plus its host-side mapping state."""

    #: Guest-physical memory is backed eagerly by host segments of this
    #: size, each one contiguous machine extent.
    HOST_SEGMENT_CHUNK = 256 * 1024 * 1024

    def __init__(self, vmid: int, name: str, guest_config: SystemConfig,
                 machine_frames: FrameAllocator) -> None:
        self.vmid = vmid
        self.name = name
        self.guest_kernel = Kernel(guest_config)
        self._machine_frames = machine_frames
        self.host_page_table = PageTable(machine_frames)
        self.host_filter = SynonymFilter(guest_config.synonym_filter)
        self.stats = StatGroup(f"vm{vmid}")
        # Eager host-segment backing of the whole gPA space, possibly in
        # several machine extents.
        self.host_segments: List[HostSegment] = []
        self._segment_bases: List[int] = []
        self._back_guest_memory(guest_config.physical_memory_bytes)
        # gPA page -> list of (guest asid, gVA page): the inverse map the
        # hypervisor maintains to name hypervisor-induced synonyms by gVA.
        self._gpa_to_gva: Dict[int, List[Tuple[int, int]]] = {}

    def _back_guest_memory(self, guest_bytes: int) -> None:
        remaining = guest_bytes
        gpa = 0
        while remaining > 0:
            piece = min(self.HOST_SEGMENT_CHUNK, remaining)
            frames = piece >> PAGE_SHIFT
            start = self._machine_frames.alloc_contiguous(frames)
            seg = HostSegment(gpa, piece, start << PAGE_SHIFT)
            self.host_segments.append(seg)
            self._segment_bases.append(gpa)
            gpa += piece
            remaining -= piece

    # ------------------------------------------------------------------ #
    # gPA → MA translation
    # ------------------------------------------------------------------ #

    def host_segment_for(self, gpa: int) -> HostSegment:
        """The host segment backing a guest-physical address."""
        index = bisect_right(self._segment_bases, gpa) - 1
        if index < 0 or not self.host_segments[index].contains(gpa):
            raise PageFault(gpa)
        return self.host_segments[index]

    def _host_fault(self, gpa: int) -> None:
        """Back a first-touched guest-physical page from its host segment."""
        page = page_base(gpa)
        ma_page = self.host_segment_for(page).offset + page
        self.host_page_table.map(page, ma_page >> PAGE_SHIFT, PERM_RW)
        self.stats.counts["host_first_touches"] += 1

    def host_translate(self, gpa: int) -> int:
        """gPA → MA, populating the host page table on first touch."""
        try:
            entry = self.host_page_table.entry(gpa)
        except PageFault:
            self._host_fault(gpa)
            entry = self.host_page_table.entry(gpa)
        return (entry.pfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1))

    def host_walk_path(self, gpa: int) -> Tuple[List[int], int]:
        """One host walk: the machine addresses of the host PTEs a nested
        walk reads and the MA it yields (populating on first touch)."""
        path, entry = self.host_page_table.walk(gpa)
        if entry is None:
            self._host_fault(gpa)
            path, entry = self.host_page_table.walk(gpa)
        return path, (entry.pfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1))

    # ------------------------------------------------------------------ #
    # Full 2-D translation
    # ------------------------------------------------------------------ #

    def translate_2d(self, guest_asid: int, gva: int):
        """gVA → gPA → MA; returns ``(ma, permissions, is_synonym)``, the
        synonym status as a 2-D walk reports it (:meth:`host_synonym`)."""
        guest = self.guest_kernel.translate(guest_asid, gva)
        ma = self.host_translate(guest.pa)
        host_entry = self.host_page_table.entry(page_base(guest.pa))
        permissions = guest.permissions & host_entry.permissions
        return ma, permissions, guest.shared or self.host_synonym(guest.pa)

    def record_gva(self, guest_asid: int, gva: int, gpa: int) -> None:
        """Maintain the gPA→gVA inverse map (done at guest map time)."""
        self._gpa_to_gva.setdefault(page_base(gpa), []).append(
            (guest_asid, page_base(gva)))

    # ------------------------------------------------------------------ #
    # Hypervisor-induced sharing
    # ------------------------------------------------------------------ #

    def gvas_of(self, gpa: int) -> List[Tuple[int, int]]:
        """Every (guest ASID, gVA page) known to name this gPA page."""
        return list(self._gpa_to_gva.get(page_base(gpa), []))

    def gva_count(self, gpa: int) -> int:
        """How many (guest ASID, gVA page) pairs name this gPA page."""
        return len(self._gpa_to_gva.get(page_base(gpa), ()))

    def host_synonym(self, gpa: int) -> bool:
        """True when more than one gVA names this gPA page (Section V-A)."""
        return self.gva_count(gpa) > 1


class Hypervisor:
    """Machine-memory owner and VM manager."""

    #: Machine memory the hypervisor backs its VMs from.
    MACHINE_BYTES = 16 * 1024 ** 3

    def __init__(self, guest_config: Optional[SystemConfig] = None) -> None:
        self.machine_frames = FrameAllocator(self.MACHINE_BYTES)
        if guest_config is None:
            # Guests default to 1 GB of guest-physical memory so several
            # VMs fit under one hypervisor (backing is eager, Section V-B).
            import dataclasses

            guest_config = dataclasses.replace(
                SystemConfig(), physical_memory_bytes=1024 ** 3)
        self.guest_config = guest_config
        self.stats = StatGroup("hypervisor")
        self._vms: List[VirtualMachine] = []

    def create_vm(self, name: str) -> VirtualMachine:
        """Create a VM with eagerly backed guest-physical memory.

        A VMID is the top 6 bits of a global ASID (:meth:`global_asid`),
        so a 64th VM is refused rather than aliasing another VM's ASIDs.
        """
        vmid = len(self._vms) + 1
        if vmid > 63:
            raise RuntimeError("VMID space exhausted (63 VMs)")
        vm = VirtualMachine(vmid, name, self.guest_config, self.machine_frames)
        self._vms.append(vm)
        self.stats.add("vms_created")
        return vm

    def global_asid(self, vm: VirtualMachine, guest_asid: int) -> int:
        """VMID-extended ASID (Section V: the ASID must include the VMID).

        The guest ASID fills the low 10 bits.  A larger one would alias
        another guest process's global ASID, so it raises ``ValueError``.
        """
        if guest_asid > 0x3FF:
            raise ValueError(f"guest ASID {guest_asid:#x} does not fit the "
                             "10 bits of a VMID-extended ASID")
        return (vm.vmid << 10) | guest_asid

    # ------------------------------------------------------------------ #
    # Content-based sharing (Section III-D / V-A)
    # ------------------------------------------------------------------ #

    def share_content_pages(self, mappings: List[Tuple[VirtualMachine, int]],
                            readonly_virtual: bool = True) -> int:
        """Fold several (vm, gpa) pages onto the first page's machine frame.

        With ``readonly_virtual`` (the paper's preferred r/o design) the
        pages stay virtually addressed with r/o permissions; otherwise the
        hypervisor marks every naming gVA in the VM's host filter, making
        them synonym candidates.  Returns the canonical machine address.
        """
        canonical_vm, canonical_gpa = mappings[0]
        canonical_ma = canonical_vm.host_translate(canonical_gpa)
        for vm, gpa in mappings:
            page = page_base(gpa)
            vm.host_page_table.unmap(page)
            vm.host_page_table.map(page, canonical_ma >> PAGE_SHIFT,
                                   permissions=PERM_READ)
            if not readonly_virtual:
                for _asid, gva in vm.gvas_of(gpa):
                    vm.host_filter.mark_shared(gva)
        self.stats.add("content_shared_pages", len(mappings))
        return canonical_ma

    def unshare_on_write(self, vm: VirtualMachine, gpa: int) -> int:
        """CoW break: give the writing VM a private machine frame again."""
        page = page_base(gpa)
        frame = self.machine_frames.alloc_frame()
        vm.host_page_table.unmap(page)
        vm.host_page_table.map(page, frame, permissions=PERM_RW)
        self.stats.add("cow_breaks")
        return frame << PAGE_SHIFT
