"""A plain Bloom filter over a fixed-size bit vector.

The paper uses two 1K-bit Bloom filters per address space (Section III-B).
Hash functions are supplied by the caller so the same structure serves the
paper's partition/XOR-fold hashes and the synthetic hashes used in tests.

Bloom filters admit false positives but never false negatives — exactly
the property the synonym filter requires: every true synonym must be
detected; a false positive merely routes one access through the TLB where
the marker entry corrects it (Section III-A).

The hash functions must be pure and read the key only through
``key >> grain_shift`` (the paper's hashes trim the address by the
filter's granularity first), so the bit positions of a key are computed
once per grain and remembered.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence


class BloomFilter:
    """Fixed-size Bloom filter with caller-supplied hash functions."""

    def __init__(self, bits: int, hash_functions: Sequence[Callable[[int], int]],
                 grain_shift: int = 0) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ValueError("bits must be a positive power of two")
        if not hash_functions:
            raise ValueError("at least one hash function is required")
        self.bits = bits
        self._mask = bits - 1
        self._hashes = tuple(hash_functions)
        self._grain_shift = grain_shift
        # Grain -> the key's hash positions as one bit mask.
        self._positions: Dict[int, int] = {}
        self._vector = 0  # Python int as a bit vector
        self._inserted = 0

    @property
    def inserted(self) -> int:
        """Number of ``insert`` calls since the last clear (OS bookkeeping)."""
        return self._inserted

    def _hash_positions(self, key: int) -> int:
        """Compute and remember the bit mask of ``key``'s hash positions."""
        positions = 0
        for h in self._hashes:
            positions |= 1 << (h(key) & self._mask)
        self._positions[key >> self._grain_shift] = positions
        return positions

    def insert(self, key: int, times: int = 1) -> None:
        """Set every hash position for ``key``, counted as ``times`` inserts.

        Keys of one grain set the same bits, so inserting one key of a
        grain ``times`` times stands for inserting that many of its keys.
        """
        positions = self._positions.get(key >> self._grain_shift)
        if positions is None:
            positions = self._hash_positions(key)
        self._vector |= positions
        self._inserted += times

    def query(self, key: int) -> bool:
        """Return True when every hash position for ``key`` is set."""
        positions = self._positions.get(key >> self._grain_shift)
        if positions is None:
            positions = self._hash_positions(key)
        return self._vector & positions == positions

    def clear(self) -> None:
        """Reset the filter to empty (address-space creation / OS rebuild)."""
        self._vector = 0
        self._inserted = 0

    def popcount(self) -> int:
        """Number of set bits — the OS's saturation signal for rebuilds."""
        return self._vector.bit_count()

    def fill_ratio(self) -> float:
        """Fraction of bits set; drives the rebuild-threshold policy."""
        return self.popcount() / self.bits

    def union_update(self, other: "BloomFilter") -> None:
        """OR another filter of identical geometry into this one."""
        if other.bits != self.bits:
            raise ValueError("cannot union filters of different sizes")
        self._vector |= other._vector

    def load_bits(self, vector: int) -> None:
        """Install a raw bit vector (models the context-switch filter load)."""
        self._vector = vector & ((1 << self.bits) - 1)

    def dump_bits(self) -> int:
        """Return the raw bit vector (models the OS saving filter state)."""
        return self._vector

    def insert_all(self, keys: Iterable[int]) -> None:
        """Insert every key in ``keys``."""
        for key in keys:
            self.insert(key)
