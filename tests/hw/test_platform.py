"""Unit tests: machine assembly, frame allocator, halt semantics.

``alloc_many`` is checked against repeated ``alloc()`` calls, the
reference for frame order and free-list state.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CvmHalted, SimulationError
from repro.hw import SevSnpMachine
from repro.hw.platform import FrameAllocator


class TestFrameAllocator:
    def test_never_hands_out_page_zero(self):
        alloc = FrameAllocator(16)
        ppns = [alloc.alloc() for _ in range(15)]
        assert 0 not in ppns

    def test_exhaustion(self):
        alloc = FrameAllocator(4)
        for _ in range(3):
            alloc.alloc()
        with pytest.raises(MemoryError):
            alloc.alloc()

    def test_free_allows_reuse(self):
        alloc = FrameAllocator(4)
        first = alloc.alloc()
        alloc.alloc()
        alloc.alloc()
        alloc.free(first)
        assert alloc.alloc() == first

    def test_double_free_rejected(self):
        alloc = FrameAllocator(8)
        ppn = alloc.alloc()
        alloc.free(ppn)
        with pytest.raises(SimulationError):
            alloc.free(ppn)

    def test_free_of_unallocated_rejected(self):
        with pytest.raises(SimulationError):
            FrameAllocator(8).free(3)

    def test_allocated_count(self):
        alloc = FrameAllocator(8)
        ppns = alloc.alloc_many(3)
        assert alloc.allocated_count == 3
        alloc.free(ppns[0])
        assert alloc.allocated_count == 2

    @given(st.lists(st.booleans(), max_size=60))
    def test_no_double_allocation_property(self, ops):
        """Allocated frames are always unique and within bounds."""
        alloc = FrameAllocator(32)
        live: list[int] = []
        for do_alloc in ops:
            if do_alloc or not live:
                try:
                    ppn = alloc.alloc()
                except MemoryError:
                    continue
                assert ppn not in live
                assert 1 <= ppn < 32
                live.append(ppn)
            else:
                alloc.free(live.pop())
        assert len(set(live)) == len(live)


class TestAllocManyParity:
    def test_fresh_frames_match_repeated_alloc(self):
        bulk, loop = FrameAllocator(64), FrameAllocator(64)
        assert bulk.alloc_many(5) == [loop.alloc() for _ in range(5)]
        assert bulk._next == loop._next

    def test_free_list_reuse_matches_repeated_alloc(self):
        bulk, loop = FrameAllocator(64), FrameAllocator(64)
        for allocator in (bulk, loop):
            ppns = [allocator.alloc() for _ in range(6)]
            for ppn in (ppns[1], ppns[3], ppns[4]):
                allocator.free(ppn)
        # Bulk draws LIFO from the free list then fresh, like alloc().
        assert bulk.alloc_many(5) == [loop.alloc() for _ in range(5)]
        assert bulk.allocated_count == loop.allocated_count

    def test_exhaustion_rolls_back_the_free_list(self):
        allocator = FrameAllocator(8)
        held = [allocator.alloc() for _ in range(7)]
        allocator.free(held[2])
        allocator.free(held[5])
        snapshot = list(allocator._free)
        with pytest.raises(MemoryError):
            allocator.alloc_many(4)    # only 2 free, no fresh left
        assert list(allocator._free) == snapshot
        assert allocator.alloc_many(2) == [held[5], held[2]]

    def test_zero_and_negative_counts_are_noops(self):
        allocator = FrameAllocator(8)
        assert allocator.alloc_many(0) == []
        assert allocator.alloc_many(-3) == []
        assert allocator.allocated_count == 0


class TestMachine:
    def test_describe(self):
        machine = SevSnpMachine(memory_bytes=16 * 1024 * 1024,
                                num_cores=4)
        text = machine.describe()
        assert "4 cores" in text and "4096 pages" in text

    def test_halt_is_terminal(self):
        machine = SevSnpMachine(memory_bytes=4 * 1024 * 1024)
        with pytest.raises(CvmHalted):
            machine.halt("test reason")
        assert machine.halted
        with pytest.raises(CvmHalted):
            machine.check_running()

    def test_page_table_registry(self):
        machine = SevSnpMachine(memory_bytes=4 * 1024 * 1024)
        table = machine.create_page_table()
        assert machine.page_table_for_root(table.root_ppn) is table
        with pytest.raises(SimulationError):
            machine.page_table_for_root(0xdead)
