"""Virtualization support: hypervisor, 2-D walks, virtualized MMUs."""

from repro.virt.hybrid_virt import (
    Delayed2dTlbEngine,
    DelayedSegment2dEngine,
    VirtConventionalMmu,
    VirtHybridMmu,
)
from repro.virt.hypervisor import HostSegment, Hypervisor, VirtualMachine
from repro.virt.twod_walker import NestedTlb, TwoDWalker

__all__ = [
    "Delayed2dTlbEngine",
    "DelayedSegment2dEngine",
    "VirtConventionalMmu",
    "VirtHybridMmu",
    "HostSegment",
    "Hypervisor",
    "VirtualMachine",
    "NestedTlb",
    "TwoDWalker",
]
