"""Simulated memory tests."""

import pytest
from hypothesis import given, strategies as st

from repro.gc import Memory, MemoryFault, PAGE_SIZE


@pytest.fixture
def mem():
    m = Memory()
    m.map_range(0x1000, 4 * PAGE_SIZE)
    return m


class TestBasicAccess:
    def test_store_load_word(self, mem):
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF

    def test_little_endian_byte_order(self, mem):
        mem.store_word(0x1000, 0x04030201)
        assert [mem.load(0x1000 + i, 1) for i in range(4)] == [1, 2, 3, 4]

    def test_byte_and_halfword(self, mem):
        mem.store(0x1000, 0xAB, 1)
        mem.store(0x1002, 0x1234, 2)
        assert mem.load(0x1000, 1) == 0xAB
        assert mem.load(0x1002, 2) == 0x1234

    def test_signed_load(self, mem):
        mem.store(0x1000, 0xFF, 1)
        assert mem.load(0x1000, 1, signed=True) == -1
        assert mem.load(0x1000, 1, signed=False) == 255

    def test_store_truncates(self, mem):
        mem.store(0x1000, 0x1FF, 1)
        assert mem.load(0x1000, 1) == 0xFF

    def test_unaligned_word(self, mem):
        mem.store_word(0x1001, 0x11223344)
        assert mem.load_word(0x1001) == 0x11223344

    def test_cross_page_access(self, mem):
        addr = 0x1000 + PAGE_SIZE - 2
        mem.store_word(addr, 0xCAFEBABE)
        assert mem.load_word(addr) == 0xCAFEBABE

    def test_zero_initialized(self, mem):
        assert mem.load_word(0x1100) == 0


class TestFaults:
    def test_unmapped_load_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.load_word(0x900000)

    def test_unmapped_store_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.store_word(0x900000, 1)

    def test_out_of_range_address_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.load_word(2**32)

    def test_is_mapped(self, mem):
        assert mem.is_mapped(0x1000)
        assert not mem.is_mapped(0x900000)

    def test_unmap(self, mem):
        mem.unmap_page(0x1000)
        assert not mem.is_mapped(0x1000)


class TestReservedRange:
    @pytest.fixture
    def reserved(self):
        m = Memory()
        m.reserve(0x10000, 4 * PAGE_SIZE)
        return m

    def test_untouched_word_reads_zero(self, reserved):
        assert reserved.load_word(0x12000) == 0

    def test_store_maps_only_the_touched_page(self, reserved):
        assert reserved.mapped_pages == 0
        reserved.store_word(0x13FFC, 7)
        assert reserved.load_word(0x13FFC) == 7
        assert reserved.mapped_pages == 1
        assert reserved.is_mapped(0x13000) and not reserved.is_mapped(0x10000)

    def test_bulk_helpers_touch_pages(self, reserved):
        reserved.write_bytes(0x10FFE, b"abcd")  # straddles two pages
        assert reserved.read_bytes(0x10FFE, 4) == b"abcd"
        assert reserved.mapped_pages == 2

    def test_outside_the_range_still_faults(self, reserved):
        with pytest.raises(MemoryFault, match="unmapped address: 0x0000fffc"):
            reserved.load_word(0xFFFC)
        with pytest.raises(MemoryFault):
            reserved.store_word(0x10000 + 4 * PAGE_SIZE, 1)
        assert reserved.mapped_pages == 0


class TestBulkHelpers:
    def test_write_read_bytes(self, mem):
        mem.write_bytes(0x1000, b"hello")
        assert mem.read_bytes(0x1000, 5) == b"hello"

    def test_cstring(self, mem):
        mem.write_bytes(0x1000, b"text\0junk")
        assert mem.read_cstring(0x1000) == "text"

    def test_fill(self, mem):
        mem.fill(0x1000, 16, 0xDD)
        assert mem.read_bytes(0x1000, 16) == b"\xdd" * 16


class TestProperties:
    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 100))
    def test_word_roundtrip(self, value, offset):
        mem = Memory()
        addr = 0x2000 + offset
        mem.map_range(addr, 8)
        mem.store_word(addr, value)
        assert mem.load_word(addr) == value

    @given(st.binary(min_size=1, max_size=64), st.integers(0, PAGE_SIZE - 1))
    def test_bytes_roundtrip_across_pages(self, data, offset):
        mem = Memory()
        addr = 0x3000 + offset
        mem.map_range(addr, len(data) + 1)
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data

    @given(st.integers(0, 0xFFFF), st.sampled_from([1, 2, 4]))
    def test_width_masking(self, value, width):
        mem = Memory()
        mem.map_range(0x4000, 8)
        mem.store(0x4000, value, width)
        assert mem.load(0x4000, width) == value % (1 << (8 * width))
