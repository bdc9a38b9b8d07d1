"""Functional oracle: every MMU translates exactly as the kernel does.

For every access, the ``translated_pa`` an MMU reports, in the plain
outcome tuple its ``access`` returns, must equal the kernel's functional
translation — ``Kernel.translate`` natively,
``VirtualMachine.translate_2d`` under virtualization.  The workloads run
several processes with synonym regions, so their address spaces sit side
by side in the segment index tree: the case where a translation
structure that ignores the ASID hands one process another's segment.

After a remap, the TLB that held the page must answer with the new
frame: every MMU's shootdown reaches every TLB it keeps.  After a
process is destroyed, nothing it left in a translation structure or a
cache may answer for a later process, even one placed at its VA.
"""

from __future__ import annotations

import pytest

from repro.common.address import PAGE_SHIFT, PAGE_SIZE
from repro.common.params import SystemConfig
from repro.core.mmu_base import AccessOutcome
from repro.osmodel.kernel import Kernel
from repro.sim.runner import MMU_CONFIGS, PRIOR_CONFIGS, build_mmu, lay_out
from tests.test_golden import SEED, VIRT_MMUS, virt_system

WORKLOADS = ("ferret", "specjbb", "firefox", "apache")
ACCESSES = 600
KB = 1024
MB = 1024 * KB


def _system(workload: str, mmu: str):
    """``(laid_out, system, oracle)`` with ``oracle(asid, va) -> pa``."""
    if mmu in VIRT_MMUS:
        laid_out, vm, system = virt_system(workload, mmu)
        return laid_out, system, lambda asid, va: vm.translate_2d(asid, va)[0]
    kernel = Kernel(SystemConfig(),
                    transparent_huge_pages=mmu == "baseline_thp")
    laid_out = lay_out(workload, kernel, seed=SEED)
    return (laid_out, build_mmu(mmu, kernel),
            lambda asid, va: kernel.translate(asid, va).pa)


@pytest.mark.parametrize("mmu", MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_translated_pa_matches_kernel(workload, mmu):
    laid_out, system, oracle = _system(workload, mmu)
    wrong = []
    for record in laid_out.trace(ACCESSES, seed=SEED):
        outcome = system.access(record.core, record.asid, record.va,
                                record.is_write)
        assert type(outcome) is tuple and len(outcome) == 6
        if AccessOutcome._make(outcome).translated_pa != oracle(record.asid,
                                                                record.va):
            wrong.append((record.asid, hex(record.va)))
    assert not wrong, f"{len(wrong)} wrong translations, first {wrong[:3]}"


@pytest.mark.parametrize("page", ("private", "shared"))
@pytest.mark.parametrize("mmu", MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS)
def test_remap_reaches_the_tlb_that_holds_the_page(mmu, page):
    """Read a page, remap it onto a fresh frame, then read a block of it
    that no cache holds: the TLB that served the first read must answer
    with the new frame."""
    _laid_out, system, oracle = _system(WORKLOADS[0], mmu)
    kernel = system.kernel  # the guest's under virtualization
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    if page == "shared":
        va = kernel.mmap_shared([a, b], 4 * PAGE_SIZE)[a.asid].vbase
    else:
        va = kernel.mmap(a, 4 * PAGE_SIZE, policy="demand").vbase
    system.access(0, a.asid, va, False)
    block = va + 64
    before = oracle(a.asid, block)
    kernel.share_readonly([(a, va)], kernel.frames.alloc_frame() << PAGE_SHIFT)
    after = AccessOutcome._make(system.access(0, a.asid, block, False))
    assert after.translated_pa == oracle(a.asid, block) != before


@pytest.mark.parametrize("mmu", MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS)
def test_retired_address_space_leaves_nothing_readable(mmu):
    """A reads a page and is destroyed; B takes A's frames; C is placed
    at A's VA.  C's reads must translate as the kernel says and miss
    the line A left: no structure may answer C with A's state."""
    _laid_out, system, oracle = _system(WORKLOADS[0], mmu)
    kernel = system.kernel  # the guest's under virtualization
    a = kernel.create_process("a")
    vma_a = kernel.mmap(a, 4 * MB, policy="eager")
    system.access(0, a.asid, vma_a.vbase + 8 * KB + 0x40, False)
    b = kernel.create_process("b")
    kernel.destroy_process(a)
    kernel.mmap(b, 4 * MB, policy="eager")
    c = kernel.create_process("c", va_base=vma_a.vbase)
    vma_c = kernel.mmap(c, 4 * MB, policy="eager")
    assert vma_c.vbase == vma_a.vbase
    for offset in (0x80, 0x40):
        va = vma_c.vbase + 8 * KB + offset
        outcome = AccessOutcome._make(system.access(0, c.asid, va, False))
        assert outcome.translated_pa == oracle(c.asid, va)
    assert outcome.hit_level == "memory"
