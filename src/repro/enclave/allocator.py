"""dlmalloc-style heap allocator for enclave memory (paper section 7).

The SDK implements an internal heap allocator over the enclave's heap
region.  This is a boundary-tag allocator in the dlmalloc tradition:
each chunk carries an 8-byte header (size + in-use bit), freed chunks are
kept on a first-fit free list and coalesced with free neighbours.

All metadata lives *inside simulated enclave memory* through the accessor
functions, so allocator state enjoys (and is subject to) the same VMPL
protection as enclave data.
"""

from __future__ import annotations

import typing

from ..errors import SdkError

HEADER_BYTES = 8
MIN_CHUNK = 32
ALIGN = 16
_IN_USE = 1
_SIZE_MASK = ~0xF


class EnclaveHeap:
    """Boundary-tag allocator over ``[base, base+size)`` enclave memory.

    ``read``/``write`` are accessor callables ``(vaddr, length) -> bytes``
    and ``(vaddr, data) -> None`` bound to the enclave execution context.

    A header is one little-endian word: the chunk size (a multiple of
    16) with the in-use flag in bit 0.  Inside an enclave every accessor
    call is a charged VCPU access, so each header is read or written
    with one accessor call, inline, and the traffic stays exactly one
    access per header touched.
    """

    def __init__(self, base: int, size: int,
                 read: typing.Callable[[int, int], bytes],
                 write: typing.Callable[[int, bytes], None]):
        if size < MIN_CHUNK * 2:
            raise SdkError("heap too small")
        self.base = base
        self.size = size
        self._read = read
        self._write = write
        # One initial free chunk spanning the whole heap.
        write(base, (size & _SIZE_MASK).to_bytes(HEADER_BYTES, "little"))
        self.allocated_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    def bind(self, read: typing.Callable[[int, int], bytes],
             write: typing.Callable[[int, bytes], None]) -> None:
        """Point the metadata accessors at another execution context."""
        self._read = read
        self._write = write

    # -- public API ----------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the user vaddr.

        First-fit over the chunk list with splitting.  Raises
        :class:`SdkError` when the heap is exhausted (enclaves cannot grow
        their layout post-measurement).
        """
        if nbytes <= 0:
            raise SdkError("malloc of non-positive size")
        need = nbytes + HEADER_BYTES
        if need < MIN_CHUNK:
            need = MIN_CHUNK
        need = (need + ALIGN - 1) & ~(ALIGN - 1)
        read = self._read
        chunk = self.base
        end = chunk + self.size
        while chunk < end:
            word = int.from_bytes(read(chunk, HEADER_BYTES), "little")
            size = word & _SIZE_MASK
            if size == 0:
                raise SdkError("heap metadata corrupted (zero chunk)")
            if not word & _IN_USE and size >= need:
                # Carve: split off the tail when it can hold a chunk.
                write = self._write
                remainder = size - need
                if remainder >= MIN_CHUNK:
                    write(chunk, (need | _IN_USE).to_bytes(HEADER_BYTES,
                                                           "little"))
                    write(chunk + need,
                          remainder.to_bytes(HEADER_BYTES, "little"))
                else:
                    write(chunk, (size | _IN_USE).to_bytes(HEADER_BYTES,
                                                           "little"))
                self.allocated_bytes += need
                self.alloc_count += 1
                return chunk + HEADER_BYTES
            chunk += size
        raise SdkError(f"enclave heap exhausted ({nbytes} bytes requested)")

    def free(self, vaddr: int) -> None:
        """Free a pointer returned by :meth:`malloc` (with coalescing)."""
        chunk = vaddr - HEADER_BYTES
        if not self.base <= chunk < self.base + self.size:
            raise SdkError(f"free of pointer outside heap: {vaddr:#x}")
        word = int.from_bytes(self._read(chunk, HEADER_BYTES), "little")
        if not word & _IN_USE:
            raise SdkError(f"double free at {vaddr:#x}")
        size = word & _SIZE_MASK
        self._write(chunk, size.to_bytes(HEADER_BYTES, "little"))
        self.allocated_bytes -= size
        self.free_count += 1
        self._coalesce()

    def calloc(self, nbytes: int) -> int:
        """malloc + zero-fill."""
        vaddr = self.malloc(nbytes)
        self._write(vaddr, b"\x00" * nbytes)
        return vaddr

    def realloc(self, vaddr: int, nbytes: int) -> int:
        """Grow (or keep) an allocation, preserving contents."""
        word = int.from_bytes(self._read(vaddr - HEADER_BYTES, HEADER_BYTES),
                              "little")
        if not word & _IN_USE:
            raise SdkError("realloc of freed pointer")
        old_user = (word & _SIZE_MASK) - HEADER_BYTES
        if nbytes <= old_user:
            return vaddr
        new = self.malloc(nbytes)
        self._write(new, self._read(vaddr, old_user))
        self.free(vaddr)
        return new

    # -- internals -------------------------------------------------------------

    def _coalesce(self) -> None:
        """Merge adjacent free chunks (single forward pass)."""
        read = self._read
        chunk = self.base
        end = chunk + self.size
        while chunk < end:
            word = int.from_bytes(read(chunk, HEADER_BYTES), "little")
            size = word & _SIZE_MASK
            if size == 0:
                raise SdkError("heap metadata corrupted during coalesce")
            nxt = chunk + size
            if not word & _IN_USE and nxt < end:
                after = int.from_bytes(read(nxt, HEADER_BYTES), "little")
                if not after & _IN_USE:
                    merged = size + (after & _SIZE_MASK)
                    self._write(chunk,
                                merged.to_bytes(HEADER_BYTES, "little"))
                    continue          # try merging further
            chunk = nxt

    def walk(self) -> list[tuple[int, int, bool]]:
        """(vaddr, size, in_use) for every chunk -- test/debug aid."""
        out = []
        read = self._read
        chunk = self.base
        end = chunk + self.size
        while chunk < end:
            word = int.from_bytes(read(chunk, HEADER_BYTES), "little")
            size = word & _SIZE_MASK
            if size == 0:
                break
            out.append((chunk, size, bool(word & _IN_USE)))
            chunk += size
        return out
