"""Unit tests: physical memory model."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.memory import (PAGE_SIZE, PhysicalMemory, page_base,
                             page_number, page_offset, pages_spanned)


def make_memory(pages: int = 16) -> PhysicalMemory:
    return PhysicalMemory(pages * PAGE_SIZE, cost=free_cost_model(),
                          ledger=CycleLedger())


class TestAddressHelpers:
    def test_page_number_and_offset(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE) == 1
        assert page_offset(PAGE_SIZE + 5) == 5
        assert page_base(3) == 3 * PAGE_SIZE

    def test_pages_spanned_single(self):
        assert list(pages_spanned(0, 1)) == [0]
        assert list(pages_spanned(100, 10)) == [0]

    def test_pages_spanned_crossing(self):
        assert list(pages_spanned(PAGE_SIZE - 1, 2)) == [0, 1]
        assert list(pages_spanned(0, 3 * PAGE_SIZE)) == [0, 1, 2]

    def test_pages_spanned_empty(self):
        assert list(pages_spanned(50, 0)) == []


class TestPhysicalMemory:
    def test_fresh_memory_reads_zero(self):
        mem = make_memory()
        assert mem.read(0, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = make_memory()
        mem.write(100, b"hello world")
        assert mem.read(100, 11) == b"hello world"

    def test_cross_page_write_read(self):
        mem = make_memory()
        data = bytes(range(256)) * 40       # 10240 bytes, 3 pages
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data

    def test_lazy_materialization(self):
        mem = make_memory()
        assert not mem.page_is_materialized(5)
        mem.write(page_base(5), b"x")
        assert mem.page_is_materialized(5)
        assert not mem.page_is_materialized(6)

    def test_zero_page_scrubs(self):
        mem = make_memory()
        mem.write(page_base(2), b"secret")
        mem.zero_page(2)
        assert mem.read(page_base(2), 6) == b"\x00" * 6

    def test_out_of_range_read_rejected(self):
        mem = make_memory(pages=2)
        with pytest.raises(IndexError):
            mem.read(2 * PAGE_SIZE - 4, 8)
        with pytest.raises(IndexError):
            mem.read(-1, 4)

    def test_out_of_range_write_rejected(self):
        mem = make_memory(pages=2)
        with pytest.raises(IndexError):
            mem.write(2 * PAGE_SIZE, b"x")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            make_memory().read(0, -1)

    @pytest.mark.parametrize("access, error, message", [
        (lambda m: m.read(-1, 4), IndexError,
         r"range \[-0x1, 0x3\) outside physical memory of 0x2000 bytes"),
        (lambda m: m.read(2 * PAGE_SIZE, 1), IndexError,
         r"range \[0x2000, 0x2001\) outside"),
        (lambda m: m.read(-8, -1), ValueError, "negative length"),
        (lambda m: m.write(-1, b"ab"), IndexError,
         r"range \[-0x1, 0x1\) outside"),
        (lambda m: m.write(2 * PAGE_SIZE - 1, b"ab"), IndexError,
         r"range \[0x1fff, 0x2001\) outside"),
    ], ids=["read-below", "read-past-end", "read-negative-length",
            "write-below", "write-straddling-end"])
    def test_bad_range_charges_nothing(self, access, error, message):
        mem = PhysicalMemory(2 * PAGE_SIZE, ledger=CycleLedger())
        with pytest.raises(error, match=message):
            access(mem)
        assert mem.ledger.total == 0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_copy_cost_charged(self):
        ledger = CycleLedger()
        mem = PhysicalMemory(4 * PAGE_SIZE, ledger=ledger)
        mem.write(0, b"\xaa" * 4000)
        assert ledger.category("copy") == 1000   # 0.25 cycles/byte

    @given(st.integers(0, 8 * PAGE_SIZE - 1),
           st.binary(min_size=1, max_size=3 * PAGE_SIZE))
    def test_roundtrip_property(self, addr, data):
        mem = make_memory(pages=16)
        if addr + len(data) > mem.size:
            return
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data

    @given(st.binary(min_size=1, max_size=64),
           st.binary(min_size=1, max_size=64))
    def test_disjoint_writes_do_not_interfere(self, first, second):
        mem = make_memory()
        mem.write(0, first)
        mem.write(PAGE_SIZE * 4, second)
        assert mem.read(0, len(first)) == first
        assert mem.read(PAGE_SIZE * 4, len(second)) == second
