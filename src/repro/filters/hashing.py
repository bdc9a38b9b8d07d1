"""The paper's Bloom-filter hash functions (Section III-B).

Each Bloom filter is probed by two hash functions.  A hash function:

1. trims the virtual address by the filter's granularity shift (15 bits for
   the 32 KB filter, 24 bits for the 16 MB filter),
2. partitions the remaining address bits into two contiguous fields — one
   function splits them 1:1, the other 1:2,
3. XOR-folds each field down to 5 bits,
4. concatenates the two 5-bit results into a 10-bit index into the
   1K-bit filter.

XOR-folding a field means XOR-ing its consecutive 5-bit chunks together,
which is cheap in hardware (a tree of XOR gates) and mixes every address
bit into the index.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.common.address import VA_BITS

FOLD_BITS = 5
FOLD_MASK = (1 << FOLD_BITS) - 1


def xor_fold(value: int) -> int:
    """XOR-fold ``value`` down to ``FOLD_BITS`` bits."""
    folded = 0
    while value:
        folded ^= value & FOLD_MASK
        value >>= FOLD_BITS
    return folded


def partition_hash(trimmed: int, field_bits: int, split_numerator: int,
                   split_denominator: int) -> int:
    """Hash ``trimmed`` (a ``field_bits``-wide value) to a 10-bit index.

    The field is split at ``field_bits * split_numerator //
    split_denominator`` from the low end; each side is XOR-folded to 5 bits
    and the two results concatenated (low partition in the low 5 bits).
    """
    cut = max(1, min(field_bits - 1, field_bits * split_numerator // split_denominator))
    low = trimmed & ((1 << cut) - 1)
    high = trimmed >> cut
    return (xor_fold(high) << FOLD_BITS) | xor_fold(low)


def make_hash_pair(grain_shift: int
                   ) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """Build the paper's two hash functions for a filter of given granularity.

    ``grain_shift`` is 15 for the fine (32 KB) filter and 24 for the coarse
    (16 MB) filter.  Both returned callables map a full (``VA_BITS``-wide)
    virtual address to a 10-bit filter index.
    """
    field_bits = VA_BITS - grain_shift

    def hash_even(va: int) -> int:
        return partition_hash(va >> grain_shift, field_bits, 1, 2)

    def hash_skewed(va: int) -> int:
        return partition_hash(va >> grain_shift, field_bits, 1, 3)

    return hash_even, hash_skewed
