"""Tests for the 4-level radix page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import PAGE_SIZE, VA_MASK
from repro.osmodel import FrameAllocator, PageFault, PageTable
from repro.osmodel.pagetable import (
    HUGE_PAGE_SIZE,
    PERM_READ,
    PERM_RW,
    PageTableEntry,
)

MB = 1024 * 1024


@pytest.fixture()
def table():
    return PageTable(FrameAllocator(64 * MB))


class TestMapping:
    def test_map_translate(self, table):
        table.map(0x1234_5000, pfn=42)
        assert table.translate(0x1234_5678) == (42 << 12) | 0x678

    def test_unmapped_raises(self, table):
        with pytest.raises(PageFault):
            table.translate(0xDEAD_0000)

    def test_unmap(self, table):
        table.map(0x4000, 7)
        entry = table.unmap(0x4000)
        assert entry.pfn == 7
        assert not table.is_mapped(0x4000)
        assert table.unmap(0x4000) is None

    def test_remap_overwrites(self, table):
        table.map(0x4000, 7)
        table.map(0x4000, 9)
        assert table.translate(0x4000) >> 12 == 9
        assert table.mapped_pages == 1

    def test_mapped_pages_counter(self, table):
        for i in range(5):
            table.map(i * PAGE_SIZE, i)
        assert table.mapped_pages == 5
        table.unmap(0)
        assert table.mapped_pages == 4

    def test_permissions_and_shared_bit(self, table):
        table.map(0x8000, 1, permissions=PERM_READ, shared=True)
        entry = table.entry(0x8000)
        assert entry.permissions == PERM_READ
        assert entry.shared
        table.set_permissions(0x8000, PERM_RW)
        table.set_shared(0x8000, False)
        entry = table.entry(0x8000)
        assert entry.permissions == PERM_RW
        assert not entry.shared

    def test_distant_addresses_no_interference(self, table):
        table.map(0x0000_0000_1000, 1)
        table.map(0x7FFF_FFFF_F000, 2)
        assert table.translate(0x1000) >> 12 == 1
        assert table.translate(0x7FFF_FFFF_F000) >> 12 == 2

    @settings(max_examples=25)
    @given(st.dictionaries(
        st.integers(min_value=0, max_value=VA_MASK >> 12),
        st.integers(min_value=0, max_value=2 ** 20),
        min_size=1, max_size=50))
    def test_translate_matches_mapping_property(self, mapping):
        table = PageTable(FrameAllocator(64 * MB))
        for vpn, pfn in mapping.items():
            table.map(vpn << 12, pfn)
        for vpn, pfn in mapping.items():
            assert table.translate(vpn << 12) == pfn << 12


class TestWalkPath:
    def test_full_path_has_four_levels(self, table):
        table.map(0x1234_5000, 1)
        path = table.walk_path(0x1234_5000)
        assert len(path) == 4
        assert len(set(path)) == 4  # distinct PTE addresses

    def test_path_stable_for_same_page(self, table):
        table.map(0x6000, 1)
        assert table.walk_path(0x6000) == table.walk_path(0x6FFF)

    def test_same_region_shares_upper_levels(self, table):
        table.map(0x10_0000, 1)
        table.map(0x10_1000, 2)
        a = table.walk_path(0x10_0000)
        b = table.walk_path(0x10_1000)
        assert a[:3] == b[:3]
        assert a[3] != b[3]

    def test_unmapped_path_truncated(self, table):
        path = table.walk_path(0x7F00_0000_0000)
        assert 1 <= len(path) <= 4

    def test_pte_addresses_are_within_node_frames(self, table):
        table.map(0x9000, 3)
        for pte_pa in table.walk_path(0x9000):
            assert pte_pa % 8 == 0


class TestIteration:
    def test_iter_mappings(self, table):
        expected = {0x1000: 1, 0x2000: 2, 0x7F00_0000_0000: 3}
        for va, pfn in expected.items():
            table.map(va, pfn)
        found = {va: e.pfn for va, e in table.iter_mappings()}
        assert found == expected


# --------------------------------------------------------------------- #
# The leaf-table index against the radix tree
# --------------------------------------------------------------------- #

def _descend_walk(table, va):
    """PageTable.walk by a four-level descent of the radix nodes alone."""
    vpn = (va & VA_MASK) >> 12
    path = []
    node = table._root
    for shift in (27, 18, 9):
        index = (vpn >> shift) & 511
        path.append(node.pa + index * 8)
        slot = node.slots.get(index)
        if slot is None or isinstance(slot, PageTableEntry):
            return path, slot
        node = slot
    index = vpn & 511
    path.append(node.pa + index * 8)
    return path, node.slots.get(index)


def _assert_matches_descent(table, addresses):
    for va in addresses:
        path, leaf = _descend_walk(table, va)
        assert table.walk(va) == (path, leaf)
        if leaf is None:
            with pytest.raises(PageFault):
                table.entry(va)
            assert not table.is_mapped(va)
        else:
            assert table.entry(va) is leaf


#: 2 MB regions under distinct root, upper and leaf-table slots; the last
#: is never touched.
_REGIONS = (0, 1, 2, 512, 512 * 512, 3 * 512 * 512)
_TOUCHED = st.integers(0, len(_REGIONS) - 2)
_PAGES = st.sampled_from((0, 1, 7, 300, 511))
_TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("map"), _TOUCHED, _PAGES, st.integers(0, 2 ** 20)),
    st.tuples(st.just("map_huge"), _TOUCHED, st.integers(0, 64)),
    st.tuples(st.just("unmap"), _TOUCHED, _PAGES),
    st.tuples(st.just("empty"), _TOUCHED),
), min_size=1, max_size=40)


class TestLeafTableIndex:
    @staticmethod
    def _probes():
        return [r * HUGE_PAGE_SIZE + page * PAGE_SIZE + 0x123
                for r in _REGIONS for page in (0, 1, 7, 8, 300, 511)]

    @settings(max_examples=40, deadline=None)
    @given(_TABLE_OPS)
    def test_entry_and_walk_match_the_descent(self, ops):
        """Random map, map_huge (also over an emptied leaf table), unmap
        and release: entry() and walk() answer as the radix descent does
        for mapped, unmapped, 2 MB and never-touched addresses."""
        table = PageTable(FrameAllocator(64 * MB))
        probes = self._probes()
        for op in ops:
            base = _REGIONS[op[1]] * HUGE_PAGE_SIZE
            if op[0] == "map":
                try:
                    table.map(base + op[2] * PAGE_SIZE, op[3])
                except ValueError:
                    pass  # 4 KB inside a 2 MB leaf
            elif op[0] == "map_huge":
                try:
                    table.map_huge(base, op[2] * 512)
                except ValueError:
                    pass  # would shadow 4 KB leaves
            elif op[0] == "unmap":
                table.unmap(base + op[2] * PAGE_SIZE)
            else:
                # Unmap every 4 KB page, leaving an empty leaf table that
                # a later map_huge replaces.
                for page in range(512):
                    table.unmap(base + page * PAGE_SIZE)
            _assert_matches_descent(table, probes)
        table.release()
        _assert_matches_descent(table, probes)

    def test_huge_leaf_over_an_emptied_leaf_table(self, table):
        table.map(0x4000_0000, 7)
        table.unmap(0x4000_0000)
        table.map_huge(0x4000_0000, pfn=512)
        _assert_matches_descent(table, [0x4000_0000, 0x4000_1234,
                                        0x401F_F000])
        assert table.entry(0x4000_1234).is_huge
        assert len(table.walk(0x4000_1234)[0]) == 3

    def test_four_kb_inside_a_huge_leaf_rejected(self, table):
        table.map_huge(0x4000_0000, pfn=512)
        with pytest.raises(ValueError):
            table.map(0x4000_1000, 9)
        assert table.entry(0x4000_1000).is_huge
