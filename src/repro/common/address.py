"""Address-space arithmetic shared across the simulator.

The simulated machine follows the paper's configuration (Table IV and
Section III-A):

* 48-bit virtual addresses (x86-64 canonical user space),
* 40-bit physical addresses (the paper's worst-case index-cache study
  spans a 40-bit physical space),
* 16-bit address-space identifiers (ASIDs), giving 65,536 address spaces,
* 4 KB base pages and 64-byte cache blocks.

Addresses are plain ``int`` everywhere for speed; this module centralizes
the bit layout so no other module hard-codes shifts.

Block-address namespaces
------------------------

Hybrid virtual caching stores two kinds of blocks in one hierarchy
(Section III-A, Figure 2): non-synonym blocks named by ``ASID + VA`` and
synonym blocks named by ``PA``.  The paper's correctness argument is that a
physical block has exactly one name.  We encode each name as a single
integer with a namespace flag in the top bit so that cache lookups,
coherence and invalidation all operate on one key type:

* synonym (physical) block:  ``(1 << 62) | (pa >> 6)``
* non-synonym block:         ``(asid << 42) | (va >> 6)``

A 48-bit VA has 42 block bits; 16 ASID bits + 42 VA-block bits = 58 bits,
which stays clear of the flag bit.
"""

from __future__ import annotations

VA_BITS = 48
PA_BITS = 40
ASID_BITS = 16
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
BLOCK_SHIFT = 6
BLOCK_SIZE = 1 << BLOCK_SHIFT
#: Cache blocks per 4 KB page: a page's block keys are the run
#: ``range(base_key, base_key + BLOCKS_PER_PAGE)`` in either namespace.
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE

VA_MASK = (1 << VA_BITS) - 1
PA_MASK = (1 << PA_BITS) - 1
ASID_MAX = (1 << ASID_BITS) - 1
PAGE_MASK = PAGE_SIZE - 1

_VA_BLOCK_BITS = VA_BITS - BLOCK_SHIFT  # 42
_SYNONYM_FLAG = 1 << 62

# Granularities used by the synonym filter (Section III-B).
FINE_GRAIN_SHIFT = 15   # 32 KB regions
COARSE_GRAIN_SHIFT = 24  # 16 MB regions


def page_number(addr: int) -> int:
    """Return the 4 KB page number of a byte address."""
    return addr >> PAGE_SHIFT


def page_offset(addr: int) -> int:
    """Return the offset of a byte address within its 4 KB page."""
    return addr & PAGE_MASK


def page_base(addr: int) -> int:
    """Return the byte address of the start of the page containing ``addr``."""
    return addr & ~PAGE_MASK


def block_number(addr: int) -> int:
    """Return the 64 B cache-block number of a byte address."""
    return addr >> BLOCK_SHIFT


def align_up(addr: int, alignment: int) -> int:
    """Round ``addr`` up to the next multiple of ``alignment`` (a power of two)."""
    return (addr + alignment - 1) & ~(alignment - 1)


def align_down(addr: int, alignment: int) -> int:
    """Round ``addr`` down to a multiple of ``alignment`` (a power of two)."""
    return addr & ~(alignment - 1)


def virtual_block_key(asid: int, va: int) -> int:
    """Pack an ``ASID + VA`` block name into the non-synonym namespace."""
    return (asid << _VA_BLOCK_BITS) | ((va & VA_MASK) >> BLOCK_SHIFT)


def physical_block_key(pa: int) -> int:
    """Pack a physical block name into the synonym namespace."""
    return _SYNONYM_FLAG | ((pa & PA_MASK) >> BLOCK_SHIFT)


def is_physical_key(key: int) -> bool:
    """True when a packed block key names a synonym (physically addressed) block."""
    return bool(key & _SYNONYM_FLAG)


def key_block_address(key: int) -> int:
    """Return the byte address (VA or PA, per namespace) of a packed block key."""
    if key & _SYNONYM_FLAG:
        return (key ^ _SYNONYM_FLAG) << BLOCK_SHIFT
    return (key & ((1 << _VA_BLOCK_BITS) - 1)) << BLOCK_SHIFT


def key_asid(key: int) -> int:
    """Return the ASID of a non-synonym packed block key (0 for synonym keys)."""
    if key & _SYNONYM_FLAG:
        return 0
    return key >> _VA_BLOCK_BITS


def virtual_page_key(asid: int, va: int) -> int:
    """Pack an ``ASID + VPN`` page name (used by delayed TLBs and shootdowns)."""
    return (asid << (VA_BITS - PAGE_SHIFT)) | ((va & VA_MASK) >> PAGE_SHIFT)


_HUGE_KEY_FLAG = 1 << 61


def virtual_huge_page_key(asid: int, va: int) -> int:
    """Pack an ``ASID + 2 MB-page`` name, disjoint from 4 KB page keys."""
    return _HUGE_KEY_FLAG | (asid << (VA_BITS - 21)) | ((va & VA_MASK) >> 21)
