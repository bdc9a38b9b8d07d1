"""Unit tests for address arithmetic and block-key namespaces."""

from hypothesis import given, strategies as st

from repro.common import address as addr


class TestPageArithmetic:
    def test_page_number_and_offset_recombine(self):
        va = 0x1234_5678
        assert (addr.page_number(va) << addr.PAGE_SHIFT) + addr.page_offset(va) == va

    def test_page_base_is_aligned(self):
        assert addr.page_base(0x1234_5678) == 0x1234_5000

    def test_block_number(self):
        assert addr.block_number(0x1000) == 0x40
        assert addr.block_number(0x103F) == 0x40
        assert addr.block_number(0x1040) == 0x41

    def test_align_up_down(self):
        assert addr.align_up(0x1001, 0x1000) == 0x2000
        assert addr.align_up(0x1000, 0x1000) == 0x1000
        assert addr.align_down(0x1FFF, 0x1000) == 0x1000

    @given(st.integers(min_value=0, max_value=addr.VA_MASK))
    def test_page_decomposition_property(self, va):
        base = addr.page_base(va)
        assert base % addr.PAGE_SIZE == 0
        assert base <= va < base + addr.PAGE_SIZE


class TestBlockKeys:
    def test_virtual_key_roundtrip(self):
        key = addr.virtual_block_key(0x1234, 0xDEAD_B000)
        assert not addr.is_physical_key(key)
        assert addr.key_asid(key) == 0x1234
        assert addr.key_block_address(key) == 0xDEAD_B000 & ~0x3F

    def test_physical_key_roundtrip(self):
        key = addr.physical_block_key(0xCAFE_F000)
        assert addr.is_physical_key(key)
        assert addr.key_block_address(key) == 0xCAFE_F000 & ~0x3F

    def test_namespaces_disjoint(self):
        va_key = addr.virtual_block_key(0, 0x1000)
        pa_key = addr.physical_block_key(0x1000)
        assert va_key != pa_key

    def test_same_va_different_asid_distinct(self):
        """Homonym protection: the ASID disambiguates identical VAs."""
        k1 = addr.virtual_block_key(1, 0x4000)
        k2 = addr.virtual_block_key(2, 0x4000)
        assert k1 != k2

    def test_adjacent_blocks_adjacent_keys(self):
        """Page flushes name a page's blocks by +1 steps from its first."""
        k = addr.virtual_block_key(7, 0x10000)
        assert addr.virtual_block_key(7, 0x10040) == k + 1
        p = addr.physical_block_key(0x10000)
        assert addr.physical_block_key(0x10040) == p + 1

    @given(st.integers(min_value=0, max_value=addr.ASID_MAX),
           st.integers(min_value=0, max_value=addr.VA_MASK))
    def test_virtual_keys_injective_per_block(self, asid, va):
        key = addr.virtual_block_key(asid, va)
        assert addr.key_asid(key) == asid
        assert addr.key_block_address(key) == va & ~0x3F

    @given(st.integers(min_value=0, max_value=addr.PA_MASK))
    def test_physical_keys_flagged(self, pa):
        assert addr.is_physical_key(addr.physical_block_key(pa))

    @given(st.integers(min_value=0, max_value=addr.ASID_MAX),
           st.integers(min_value=0, max_value=addr.VA_MASK))
    def test_page_key_groups_whole_page(self, asid, va):
        base_key = addr.virtual_page_key(asid, addr.page_base(va))
        assert addr.virtual_page_key(asid, va) == base_key


class TestVirtualPageKey:
    def test_distinct_pages_distinct_keys(self):
        assert (addr.virtual_page_key(1, 0x1000)
                != addr.virtual_page_key(1, 0x2000))

    def test_asid_in_upper_bits(self):
        key = addr.virtual_page_key(5, 0x3000)
        assert key >> (addr.VA_BITS - addr.PAGE_SHIFT) == 5
