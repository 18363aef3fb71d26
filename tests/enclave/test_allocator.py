"""Unit + property tests: the dlmalloc-style enclave heap."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.enclave.allocator import EnclaveHeap, HEADER_BYTES, MIN_CHUNK
from repro.errors import SdkError


def make_heap(size: int = 64 * 1024, log: list | None = None):
    """A heap over a bytearray; with ``log``, every accessor call is
    appended to it as ``(kind, vaddr, length)``."""
    backing = bytearray(1 << 20)
    base = 0x1000

    def read(vaddr, length):
        if log is not None:
            log.append(("read", vaddr, length))
        return bytes(backing[vaddr:vaddr + length])

    def write(vaddr, data):
        if log is not None:
            log.append(("write", vaddr, len(data)))
        backing[vaddr:vaddr + len(data)] = data

    return EnclaveHeap(base, size, read, write), backing


class TestMallocFree:
    def test_basic_alloc_returns_usable_pointer(self):
        heap, backing = make_heap()
        ptr = heap.malloc(100)
        assert ptr >= heap.base + HEADER_BYTES

    def test_allocations_do_not_overlap(self):
        heap, _ = make_heap()
        spans = []
        for size in (10, 200, 33, 4096, 7):
            ptr = heap.malloc(size)
            spans.append((ptr, ptr + size))
        spans.sort()
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_free_allows_reuse(self):
        heap, _ = make_heap(size=1024)
        ptr = heap.malloc(512)
        heap.free(ptr)
        again = heap.malloc(512)
        assert again == ptr

    def test_exhaustion_raises(self):
        heap, _ = make_heap(size=256)
        with pytest.raises(SdkError):
            heap.malloc(10_000)

    def test_double_free_detected(self):
        heap, _ = make_heap()
        ptr = heap.malloc(64)
        heap.free(ptr)
        with pytest.raises(SdkError):
            heap.free(ptr)

    def test_foreign_pointer_free_detected(self):
        heap, _ = make_heap()
        with pytest.raises(SdkError):
            heap.free(0xdead0000)

    def test_non_positive_malloc_rejected(self):
        heap, _ = make_heap()
        with pytest.raises(SdkError):
            heap.malloc(0)

    def test_coalescing_recovers_large_block(self):
        heap, _ = make_heap(size=4096)
        pointers = [heap.malloc(900) for _ in range(4)]
        for ptr in pointers:
            heap.free(ptr)
        # After coalescing a nearly-heap-sized allocation must fit again.
        heap.malloc(3900)

    def test_calloc_zeroes(self):
        heap, backing = make_heap()
        ptr = heap.malloc(64)
        backing[ptr:ptr + 64] = b"\xff" * 64
        heap.free(ptr)
        ptr2 = heap.calloc(64)
        assert backing[ptr2:ptr2 + 64] == b"\x00" * 64

    def test_realloc_preserves_contents(self):
        heap, backing = make_heap()
        ptr = heap.malloc(32)
        backing[ptr:ptr + 5] = b"hello"
        new = heap.realloc(ptr, 500)
        assert backing[new:new + 5] == b"hello"

    def test_realloc_shrink_is_noop(self):
        heap, _ = make_heap()
        ptr = heap.malloc(256)
        assert heap.realloc(ptr, 10) == ptr

    def test_walk_accounts_for_whole_heap(self):
        heap, _ = make_heap(size=8192)
        heap.malloc(100)
        heap.malloc(200)
        assert sum(size for _a, size, _u in heap.walk()) == 8192


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("malloc"), st.integers(1, 2000)),
        st.tuples(st.just("free"), st.integers(0, 10)),
    ), max_size=60))
    def test_allocator_invariants(self, ops):
        """Live allocations never overlap, chunk walk always covers the
        heap exactly, and frees always reuse addresses correctly."""
        heap, _ = make_heap(size=32 * 1024)
        live: dict[int, int] = {}
        for op, value in ops:
            if op == "malloc":
                try:
                    ptr = heap.malloc(value)
                except SdkError:
                    continue
                for other, size in live.items():
                    assert ptr + value <= other or \
                        other + size <= ptr
                live[ptr] = value
            elif live:
                keys = sorted(live)
                victim = keys[value % len(keys)]
                heap.free(victim)
                del live[victim]
        walked = sum(size for _a, size, _u in heap.walk())
        assert walked == 32 * 1024

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 512), min_size=1, max_size=30))
    def test_free_all_restores_single_chunk(self, sizes):
        heap, _ = make_heap(size=64 * 1024)
        pointers = []
        for size in sizes:
            pointers.append(heap.malloc(size))
        for ptr in pointers:
            heap.free(ptr)
        chunks = heap.walk()
        assert len(chunks) == 1
        assert not chunks[0][2]        # free


class TestMetadataTraffic:
    """In an enclave every accessor call is a VCPU access the model
    charges (a page walk and a copy), so the heap's metadata traffic is
    part of every ledger: an allocator change must not add, drop or
    reorder an access."""

    #: sha256 over the accessor calls and results of the sequence below,
    #: and over the final heap bytes, recorded on the allocator before
    #: its header accesses were inlined (one helper call per header).
    TRAFFIC_SHA256 = ("1dfe18fcf500f88ce33bf1409e03a815"
                      "e046157fdc0b88df9e4c42d2a058df37")
    MEMORY_SHA256 = ("ee88db60227335132b6fd0efec9a1c6f"
                     "758fa6e19ea33acd79f6520e1943a53d")

    @staticmethod
    def _run(log: list) -> tuple[list, bytes]:
        """A seeded malloc/calloc/realloc/free sequence (exhaustion and
        double frees included) on a 16 KiB heap."""
        rng = random.Random(28)
        heap, backing = make_heap(size=16 * 1024, log=log)
        live: list[int] = []
        results = []
        for _ in range(400):
            op = rng.choice(("malloc", "malloc", "calloc", "realloc",
                             "free", "free", "double-free"))
            size = rng.choice((1, 8, 24, 100, 500, 2000, 9000))
            try:
                if op == "malloc" or (op != "calloc" and not live):
                    live.append(heap.malloc(size))
                    results.append(live[-1])
                elif op == "calloc":
                    live.append(heap.calloc(size))
                    results.append(live[-1])
                elif op == "realloc":
                    index = rng.randrange(len(live))
                    live[index] = heap.realloc(live[index], size)
                    results.append(live[index])
                elif op == "free":
                    heap.free(live.pop(rng.randrange(len(live))))
                    results.append("freed")
                else:
                    victim = live.pop(rng.randrange(len(live)))
                    heap.free(victim)
                    heap.free(victim)
            except SdkError as refused:
                results.append(str(refused))
        results.append(heap.walk())
        return results, bytes(backing)

    def test_accessor_calls_match_the_recorded_sequence(self):
        log: list = []
        results, memory = self._run(log)
        traffic = hashlib.sha256(repr((log, results)).encode()).hexdigest()
        assert len(log) > 4000
        assert traffic == self.TRAFFIC_SHA256
        assert hashlib.sha256(memory).hexdigest() == self.MEMORY_SHA256
