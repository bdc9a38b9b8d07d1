"""The access path hands plain tuples upward.

Every MMU's ``access`` returns ``(front_cycles, cache_cycles,
delayed_cycles, dram_cycles, hit_level, translated_pa)`` (tests/test_oracle.py
checks the type for every MMU on every access), and the lookups and walks
under it return plain tuples too; ``AccessOutcome`` is only the named view
of the outcome tuple.  The timing model must account a plain tuple exactly
as it accounts that view.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE, virtual_page_key
from repro.common.params import SystemConfig
from repro.core import AccessOutcome, HybridMmu
from repro.osmodel import Kernel
from repro.osmodel.pagetable import PERM_READ
from repro.segtrans import ManySegmentTranslator
from repro.sim.runner import build_mmu, lay_out
from repro.timing.model import TimingModel
from repro.tlb import TlbEntry, TlbHierarchy
from repro.virt import Hypervisor, TwoDWalker

MB = 1024 * 1024


def assert_outcome_tuple(outcome) -> None:
    assert type(outcome) is tuple
    assert len(outcome) == 6
    named = AccessOutcome._make(outcome)
    assert named._fields == ("front_cycles", "cache_cycles", "delayed_cycles",
                             "dram_cycles", "hit_level", "translated_pa")
    assert tuple(named) == outcome
    assert named.total_cycles == sum(outcome[:4])
    assert named.llc_miss == (outcome[4] == "memory")


@pytest.mark.parametrize("delayed", ["tlb", "segments"])
def test_copy_on_write_retries_return_plain_tuples(delayed):
    config = dataclasses.replace(SystemConfig(), cores=2)
    kernel = Kernel(config)
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    kernel.mmap(a, MB, policy="eager")
    kernel.mmap(b, MB, policy="eager")
    # A write to a read-only synonym faults before the cache access.
    shared = kernel.mmap_shared([a, b], 4 * PAGE_SIZE, permissions=PERM_READ)
    mmu = HybridMmu(kernel, config, delayed=delayed)
    synonym_write = mmu.access(0, a.asid, shared[a.asid].vbase, True)
    # A write to a read-only virtually cached line faults after it.
    private = kernel.mmap(a, 4 * PAGE_SIZE, policy="demand")
    mmu.access(0, a.asid, private.vbase, True)
    kernel.fork(a)
    line_write = mmu.access(0, a.asid, private.vbase, True)
    assert mmu.hybrid_stats["permission_faults"] == 2
    assert_outcome_tuple(synonym_write)
    assert_outcome_tuple(line_write)


def test_lookups_and_walks_return_plain_tuples():
    config = SystemConfig()
    kernel = Kernel(config)
    p = kernel.create_process("p")
    vma = kernel.mmap(p, 4 * MB, policy="eager")
    mmu = build_mmu("baseline", kernel)

    tlbs = TlbHierarchy(config.l1_tlb, config.l2_tlb)
    key = virtual_page_key(p.asid, vma.vbase)
    assert tlbs.lookup(key) == (None, "miss")
    tlbs.fill(TlbEntry(key, 7, True))
    hit = tlbs.lookup(key)
    assert type(hit) is tuple and hit[1] == "l1"

    path = kernel.pte_path(p.asid, vma.vbase)
    assert type(path) is tuple and len(path) == 4
    walk = mmu.walkers[0].walk(p.asid, vma.vbase)
    assert type(walk) is tuple and len(walk) == 4
    assert walk[1:] == path[1:]

    translation = ManySegmentTranslator(kernel).translate(p.asid, vma.vbase)
    assert type(translation) is tuple and len(translation) == 5
    assert translation[0] == kernel.translate(p.asid, vma.vbase).pa

    hypervisor = Hypervisor()
    vm = hypervisor.create_vm("vm")
    guest = vm.guest_kernel.create_process("g")
    gvma = vm.guest_kernel.mmap(guest, MB, policy="eager")
    walker = TwoDWalker(vm, config.walker, charge=lambda ma: 1)
    nested = walker.walk(guest.asid, gvma.vbase)
    assert type(nested) is tuple and len(nested) == 5
    # (cycles, ma, permissions, guest_shared, reads): the native order + reads.
    assert nested[1:4] == vm.translate_2d(guest.asid, gvma.vbase)


@pytest.mark.parametrize("mmu", ["baseline", "hybrid_segments"])
def test_timing_accounts_tuples_and_views_alike(mmu):
    kernel = Kernel(SystemConfig())
    workload = lay_out("gups", kernel, seed=42)
    system = build_mmu(mmu, kernel)
    outcomes = [system.access(*ref) for ref in workload.references(500, seed=42)]
    for outcome in outcomes:
        assert_outcome_tuple(outcome)
    plain, named = TimingModel(mlp=2.0), TimingModel(mlp=2.0)
    plain.account(outcomes, 3)
    named.account(map(AccessOutcome._make, outcomes), 3)
    assert plain.acct == named.acct
    assert plain.histogram_snapshots() == named.histogram_snapshots()
    # Each run translates somewhere: before the L1 or after the LLC.
    assert plain.acct.front_stall_cycles + plain.acct.delayed_stall_cycles > 0
