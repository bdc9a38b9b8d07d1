"""The operating-system facade the simulated hardware talks to.

The kernel owns physical memory, processes, the system-wide segment table
and index tree, and the synonym bookkeeping the paper assigns to software:

* marking pages shared and updating per-process Bloom filters
  (Section III-B), including rebuilds past a saturation threshold;
* TLB shootdowns and cache flushes on remap/permission changes
  (Section III-A), delivered to registered hardware listeners;
* demand- and eager-segment-backed memory allocation (Section IV-B);
* copy-on-write resolution of permission faults on r/o content-shared
  pages (Section III-D).

The hardware-facing entry point is :meth:`translate`, which performs the
functional VA→PA mapping (resolving first-touch faults inline) and
returns the page's permissions and ground-truth synonym status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.address import PAGE_SHIFT, PAGE_SIZE, page_base
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.osmodel.address_space import (
    POLICY_DEMAND,
    POLICY_EAGER,
    POLICY_SHARED,
    Process,
    Vma,
)
from repro.osmodel.frames import FrameAllocator
from repro.osmodel.index_tree import IndexTree
from repro.osmodel.pagetable import PERM_READ, PERM_RW, PageFault, PageTableEntry
from repro.osmodel.segments import OsSegmentTable

#: Listener signature for shootdowns: (asid, page_va) of the dead mapping.
ShootdownFn = Callable[[int, int], None]
#: Listener signature for per-page cache flushes: (asid, page_va, was_shared).
FlushFn = Callable[[int, int, bool], None]


class SegmentationViolation(Exception):
    """Access outside every VMA of the address space."""

    def __init__(self, asid: int, va: int) -> None:
        super().__init__(f"access outside address space: asid={asid} va={va:#x}")
        self.asid = asid
        self.va = va


@dataclass(slots=True)
class Translation:
    """Functional translation result handed to the hardware models."""

    pa: int
    permissions: int
    shared: bool       # ground-truth synonym status of the page


def _translation(entry: PageTableEntry, va: int) -> Translation:
    """The translation a leaf PTE (4 KB or 2 MB) gives ``va``."""
    pa = (entry.pfn << PAGE_SHIFT) | (va & ((1 << entry.page_shift) - 1))
    return Translation(pa, entry.permissions, entry.shared)


class Kernel:
    """System software model.

    Every process's synonym filter is built from
    ``config.synonym_filter``, physical memory holds
    ``config.physical_memory_bytes``, and the system-wide segment table
    holds up to ``config.segments.segment_table_entries`` segments, as
    many as the hardware segment table mirrors (Section IV-C).
    """

    #: Filter fill ratio beyond which the OS rebuilds a process's filters.
    FILTER_REBUILD_THRESHOLD = 0.5

    def __init__(self, config: SystemConfig | None = None,
                 transparent_huge_pages: bool = False) -> None:
        self.config = config or SystemConfig()
        self.stats = StatGroup("kernel")
        self.frames = FrameAllocator(self.config.physical_memory_bytes)
        self.segment_table = OsSegmentTable(
            capacity=self.config.segments.segment_table_entries)
        #: Transparent huge pages: eager allocations are 2 MB-aligned and
        #: first touches install 2 MB leaves where alignment permits.
        self.thp = transparent_huge_pages
        self.index_tree = IndexTree(self.frames)
        self._processes: Dict[int, Process] = {}
        self._next_asid = 1
        self._shootdown_listeners: List[ShootdownFn] = []
        self._flush_listeners: List[FlushFn] = []
        self._permission_listeners: List[Callable[[int, int, int], None]] = []
        # Frames shared CoW by fork(): owned by more than one address
        # space, so per-process teardown must not free them.  (A full
        # refcount would reclaim them on last exit; this model documents
        # them as intentionally retained.)
        self._cow_frames: set = set()

    # ------------------------------------------------------------------ #
    # Processes
    # ------------------------------------------------------------------ #

    def create_process(self, name: str, va_base: Optional[int] = None) -> Process:
        """Spawn a process with a fresh ASID.

        Heap bases are staggered per process (ASLR-style) by default.
        Beyond realism this matters to the hybrid design: the caches are
        virtually indexed, so identical layouts across processes would
        pile every process's hot set into the same cache sets.

        ASIDs are 16-bit (Section III-A) and never reused: reuse would
        need every ASID-tagged structure (TLBs, segment caches, range
        TLB, direct-segment registers, ASID+VA lines) flushed of the
        retired address space.  ASID 0 is never handed out, so a kernel
        creates at most 65,535 processes.
        """
        if self._next_asid > 0xFFFF:
            raise RuntimeError("ASID space exhausted (65,535 address "
                               "spaces created; ASIDs are never reused)")
        asid = self._next_asid
        self._next_asid += 1
        if va_base is None:
            va_base = 0x1000_0000 + (asid % 64) * 0x37_F000
        process = Process(name, asid, self.frames, self.segment_table,
                          self.config.synonym_filter, va_base=va_base)
        if self.thp:
            process.segment_allocator.align_frames = 512  # 2 MB
        self._processes[asid] = process
        self.stats.add("processes_created")
        return process

    def destroy_process(self, process: Process) -> None:
        """Tear down an address space and retire its ASID.

        Unmaps every VMA (flushing caches and shooting down TLBs page by
        page) and releases the radix-table node frames.  The ASID is
        never handed out again, so what hardware still caches under it
        (segment-cache and range-TLB entries, ASID+VA lines) is
        unreachable, not stale.
        """
        for vma in process.vmas():
            self.munmap(process, vma)
        process.page_table.release()
        del self._processes[process.asid]
        self.stats.add("processes_destroyed")

    def process(self, asid: int) -> Process:
        return self._processes[asid]

    def processes(self) -> List[Process]:
        return list(self._processes.values())

    # ------------------------------------------------------------------ #
    # Hardware listener registration
    # ------------------------------------------------------------------ #

    def on_shootdown(self, listener: ShootdownFn) -> None:
        """Register a TLB-like structure for shootdown delivery."""
        self._shootdown_listeners.append(listener)

    def on_page_flush(self, listener: FlushFn) -> None:
        """Register a cache hierarchy for per-page flush delivery."""
        self._flush_listeners.append(listener)

    def _shootdown(self, asid: int, page_va: int) -> None:
        self.stats.add("shootdowns")
        for listener in self._shootdown_listeners:
            listener(asid, page_va)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        self.stats.add("page_flushes")
        for listener in self._flush_listeners:
            listener(asid, page_va, was_shared)

    # ------------------------------------------------------------------ #
    # Memory mapping
    # ------------------------------------------------------------------ #

    def mmap(self, process: Process, size_bytes: int,
             policy: str = POLICY_DEMAND, permissions: int = PERM_RW) -> Vma:
        """Map fresh private anonymous memory.

        ``policy`` selects demand paging or eager segment backing; either
        way pages enter the page table on first touch so utilization and
        fault behaviour are measurable.
        """
        if policy not in (POLICY_DEMAND, POLICY_EAGER):
            raise ValueError(f"unknown mmap policy {policy!r}")
        if policy == POLICY_EAGER:
            allocator = process.segment_allocator
            vbase, segments = allocator.allocate(size_bytes)
            # A segment grown by adjacency merging also covers earlier
            # requests, so the VMA takes only this request's range.
            vma = Vma(vbase, allocator.request_bytes(size_bytes),
                      POLICY_EAGER, permissions, segments=segments)
        else:
            vbase = process.reserve_va(size_bytes)
            vma = Vma(vbase, ((size_bytes + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE,
                      POLICY_DEMAND, permissions)
        self.stats.add(f"mmap_{policy}")
        return process.add_vma(vma)

    def mmap_shared(self, participants: Iterable[Process], size_bytes: int,
                    permissions: int = PERM_RW) -> Dict[int, Vma]:
        """Create a r/w shared (synonym) region across several processes.

        One contiguous physical extent backs the region; every participant
        maps it at its own virtual address, creating true synonyms.  Each
        participant's Bloom filters get every page of the region — the
        paper's OS responsibility on the private→shared transition.
        """
        size_bytes = ((size_bytes + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        frames_needed = size_bytes >> PAGE_SHIFT
        start_frame = self.frames.alloc_contiguous(frames_needed)
        pbase = start_frame << PAGE_SHIFT
        result: Dict[int, Vma] = {}
        for process in participants:
            vbase = process.reserve_va(size_bytes, area="mmap")
            vma = Vma(vbase, size_bytes, POLICY_SHARED, permissions,
                      shared=True, shared_pbase=pbase)
            process.add_vma(vma)
            process.record_shared_range(vbase, size_bytes)
            self._maybe_rebuild_filter(process)
            result[process.asid] = vma
        self.stats.add("mmap_shared")
        return result

    def munmap(self, process: Process, vma: Vma) -> None:
        """Tear down a mapping: flush caches, shoot down TLBs, free memory.

        Each page is flushed while it is still mapped: physically
        addressed listeners translate the page to find its blocks.
        """
        table = process.page_table
        for offset in range(0, vma.length, PAGE_SIZE):
            va = vma.vbase + offset
            if not table.is_mapped(va):
                continue
            self._flush_page(process.asid, va, vma.shared)
            entry = table.unmap(va)
            self._shootdown(process.asid, va)
            if (vma.policy == POLICY_DEMAND
                    and entry.pfn not in self._cow_frames):
                self.frames.free(entry.pfn, 1)
        if vma.policy == POLICY_EAGER:
            for seg in vma.segments:
                # Adjacency merging can grow one segment across several
                # eager VMAs; release it only with its last referencing VMA.
                if any(seg is other_seg
                       for other in process.vmas() if other is not vma
                       for other_seg in other.segments):
                    continue
                self.segment_table.remove(seg.seg_id)
                self.frames.free(seg.pbase >> PAGE_SHIFT, seg.length >> PAGE_SHIFT)
                process.segment_allocator.forget(seg)
        process.remove_vma(vma)
        self.stats.add("munmap")

    # ------------------------------------------------------------------ #
    # Synonym status transitions
    # ------------------------------------------------------------------ #

    def share_existing_pages(self, process: Process, vbase: int,
                             length: int) -> None:
        """Private→shared transition of an already-mapped range.

        Updates the Bloom filters and flushes the affected ASID+VA lines
        from the caches (they must re-enter under physical addresses), per
        Section III-A "Page Deallocation and Remap".
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                continue
            entry.shared = True
            process.record_shared_page(va)
            self._flush_page(process.asid, va, False)
            self._shootdown(process.asid, va)
        vma = process.find_vma(vbase)
        if vma is not None:
            vma.shared = True
        self._maybe_rebuild_filter(process)
        self.stats.add("share_transitions")

    def share_readonly(self, processes_vas: List[Tuple[Process, int]],
                       pbase: int) -> None:
        """Content-based r/o sharing (Section III-D).

        The given (process, va) pages are remapped onto one physical page
        with read-only permissions.  No synonym-filter update is needed:
        r/o synonyms stay virtually addressed because they cannot create
        incoherence; cached copies are permission-downgraded instead,
        through the listeners :meth:`change_permissions` notifies.
        """
        for process, va in processes_vas:
            va = page_base(va)
            old = process.page_table.unmap(va)
            if old is not None and old.pfn != (pbase >> PAGE_SHIFT):
                self.frames.free(old.pfn, 1)
            process.page_table.map(va, pbase >> PAGE_SHIFT,
                                   permissions=PERM_READ, shared=False)
            self._shootdown(process.asid, va)
            for listener in self._permission_listeners:
                listener(process.asid, va, PERM_READ)
        self.stats.add("content_sharings")

    def fork(self, parent: Process, name: Optional[str] = None) -> Process:
        """Duplicate an address space with copy-on-write sharing.

        Every mapped page of the parent is re-mapped read-only in *both*
        address spaces, pointing at the same frame.  Under hybrid virtual
        caching this needs **no synonym-filter update**: the copies are
        read-only synonyms, which Section III-D explicitly allows to stay
        virtually addressed (r/o data cannot become incoherent).  The
        first write in either process raises a permission fault and
        :meth:`handle_cow_fault` privatizes the page.

        Every private VMA, demand or eager, reappears in the child as a
        demand VMA over the same range.  Eager segments are *not* shared
        or copied (segments are per-ASID): the child gets none, so the
        parent's already-touched pages become CoW 4 KB mappings and the
        untouched parts demand-fault in the child.  Shared VMAs map the
        same frames at a fresh VA in the child's mmap area.
        """
        child = self.create_process(name or f"{parent.name}-child")
        for vma in parent.vmas():
            if vma.policy == POLICY_SHARED:
                assert vma.shared_pbase is not None
                child_vma = Vma(child.reserve_va(vma.length, area="mmap"),
                                vma.length, POLICY_SHARED, vma.permissions,
                                shared=True, shared_pbase=vma.shared_pbase)
                child.add_vma(child_vma)
                child.record_shared_range(child_vma.vbase, vma.length)
                continue
            # Private mapping: same VAs in the child, CoW-shared frames.
            child_vma = Vma(vma.vbase, vma.length, POLICY_DEMAND,
                            vma.permissions)
            child.add_vma(child_vma)
            child.segment_allocator.skip_past(vma.vlimit)
            for offset in range(0, vma.length, PAGE_SIZE):
                va = vma.vbase + offset
                try:
                    entry = parent.page_table.entry(va)
                except PageFault:
                    continue
                if entry.is_huge or entry.shared:
                    continue  # huge/shared leaves keep their own handling
                ro = entry.permissions & ~0x2
                parent.page_table.set_permissions(va, ro)
                child.page_table.map(va, entry.pfn, ro, shared=False)
                self._cow_frames.add(entry.pfn)
                self._shootdown(parent.asid, va)
                for listener in self._permission_listeners:
                    listener(parent.asid, va, ro)
        self.stats.add("forks")
        return child

    def register_dma_region(self, process: Process, vbase: int,
                            length: int) -> None:
        """Mark pages used for device DMA as synonym pages.

        Section III-A: "The pages used for direct memory access (DMA) by
        I/O devices are also marked as synonym pages, and they are cached
        in physical address" — devices address memory physically, so the
        single-name rule requires the CPU side to use physical names too.
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                # Fault it in first so DMA has a concrete frame.
                self.translate(process.asid, va)
                entry = process.page_table.entry(va)
            entry.shared = True
            process.record_shared_page(va)
            self._flush_page(process.asid, va, False)
            self._shootdown(process.asid, va)
        self._maybe_rebuild_filter(process)
        self.stats.add("dma_registrations")

    def change_permissions(self, process: Process, vbase: int, length: int,
                           permissions: int) -> None:
        """Change a mapped range's permissions (e.g. mprotect).

        Section III-A: "When the permission of a non-synonym page
        changes, the permission bits in cached copies must be updated
        along with the flush of the delayed translation TLB entry for
        the page."  Cached copies are downgraded in place via the
        permission-update listeners; TLB entries are shot down.
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                continue
            entry.permissions = permissions
            self._shootdown(process.asid, va)
            for listener in self._permission_listeners:
                listener(process.asid, va, permissions)
        vma = process.find_vma(vbase)
        if vma is not None and vma.vbase == vbase and vma.length == length:
            vma.permissions = permissions
        self.stats.add("permission_changes")

    def on_permission_change(self, listener) -> None:
        """Register a cache hierarchy for in-place permission downgrades.

        Listener signature: ``(asid, page_va, new_permissions)``.
        """
        self._permission_listeners.append(listener)

    def handle_cow_fault(self, process: Process, va: int) -> int:
        """Copy-on-write: give a faulting writer its own r/w page.

        Returns the new physical page base.  Models the paper's permission
        -fault flow for content-shared pages: allocate, copy, remap r/w.
        """
        va = page_base(va)
        new_frame = self.frames.alloc_frame()
        process.page_table.unmap(va)
        process.page_table.map(va, new_frame, permissions=PERM_RW, shared=False)
        self._flush_page(process.asid, va, False)
        self._shootdown(process.asid, va)
        self.stats.add("cow_faults")
        return new_frame << PAGE_SHIFT

    def _maybe_rebuild_filter(self, process: Process) -> None:
        if process.synonym_filter.fill_ratio() > self.FILTER_REBUILD_THRESHOLD:
            process.rebuild_filter()
            self.stats.add("filter_rebuilds")

    # ------------------------------------------------------------------ #
    # Translation (the hardware's functional oracle)
    # ------------------------------------------------------------------ #

    def translate(self, asid: int, va: int) -> Translation:
        """VA→PA with inline first-touch fault handling."""
        process = self._processes[asid]
        table = process.page_table
        try:
            entry = table.entry(va)
        except PageFault:
            self._handle_fault(process, va)
            entry = table.entry(va)
        return _translation(entry, va)

    def _handle_fault(self, process: Process, va: int) -> None:
        vma = process.find_vma(va)
        if vma is None:
            raise SegmentationViolation(process.asid, va)
        page_va = page_base(va)
        counts = self.stats.counts
        if vma.policy == POLICY_DEMAND:
            frame = self.frames.alloc_frame()
            process.page_table.map(page_va, frame, vma.permissions, shared=False)
            counts["demand_faults"] += 1
        elif vma.policy == POLICY_EAGER:
            segment = vma.segment_for(va)
            if segment is None:
                raise SegmentationViolation(process.asid, va)
            segment.touch(page_va)
            pa = segment.translate(page_va)
            if self.thp and self._try_map_huge(process, segment, va):
                counts["huge_first_touches"] += 1
            else:
                process.page_table.map(page_va, pa >> PAGE_SHIFT,
                                       vma.permissions, shared=False)
            counts["eager_first_touches"] += 1
        else:  # POLICY_SHARED
            assert vma.shared_pbase is not None
            pa = vma.shared_pbase + (page_va - vma.vbase)
            process.page_table.map(page_va, pa >> PAGE_SHIFT, vma.permissions,
                                   shared=True)
            counts["shared_first_touches"] += 1

    def _try_map_huge(self, process: Process, segment, va: int) -> bool:
        """Install a 2 MB leaf when alignment and coverage permit."""
        from repro.osmodel.pagetable import HUGE_PAGE_SIZE

        huge_base = va & ~(HUGE_PAGE_SIZE - 1)
        if not (segment.contains(huge_base)
                and segment.contains(huge_base + HUGE_PAGE_SIZE - 1)):
            return False
        pa_base = huge_base + segment.offset
        if pa_base & (HUGE_PAGE_SIZE - 1):
            return False
        process.page_table.map_huge(huge_base, pa_base >> PAGE_SHIFT,
                                    permissions=0x3, shared=False)
        # The whole huge page is now resident; count it as touched.
        for offset in range(0, HUGE_PAGE_SIZE, PAGE_SIZE):
            segment.touch(huge_base + offset)
        return True

    def pte_path(self, asid: int, va: int) -> Tuple[List[int], int, int, bool]:
        """One hardware page walk: ``(path, pa, permissions, shared)``.

        ``path`` holds the physical addresses of the PTEs the walk reads
        (root→leaf); the rest is what the leaf yields for ``va``, as in
        :meth:`translate`.  A first touch is faulted in before the walk
        completes, so the walker always sees a full path — the fault cost
        itself is accounted by the caller via kernel stats.
        """
        process = self._processes[asid]
        path, entry = process.page_table.walk(va)
        if entry is None:
            self._handle_fault(process, va)
            path, entry = process.page_table.walk(va)
        pa = (entry.pfn << PAGE_SHIFT) | (va & ((1 << entry.page_shift) - 1))
        return path, pa, entry.permissions, entry.shared

    def is_synonym_page(self, asid: int, va: int) -> bool:
        """Ground truth for filter false-positive accounting."""
        process = self._processes[asid]
        try:
            return process.page_table.entry(page_base(va)).shared
        except PageFault:
            vma = process.find_vma(va)
            return bool(vma and vma.shared)

    # ------------------------------------------------------------------ #
    # Segment-side services (delayed many-segment translation)
    # ------------------------------------------------------------------ #

    def current_index_tree(self) -> IndexTree:
        """The index tree, rebuilt if the segment table changed."""
        if self.index_tree.ensure_current(self.segment_table):
            self.stats.add("index_tree_rebuilds")
        return self.index_tree

    def segment_lookup(self, asid: int, va: int):
        """OS-path segment lookup (HW segment-table cold-miss interrupt)."""
        return self.segment_table.find(asid, va)

    def shootdown_page(self, asid: int, va: int) -> None:
        """Explicit shootdown request (tests / remap experiments)."""
        self._shootdown(asid, page_base(va))
