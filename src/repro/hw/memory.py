"""Physical memory model: a flat array of 4 KiB pages.

Pages are allocated lazily (a zero page is materialized on first touch) so
multi-gigabyte guests are cheap to simulate.  All byte access goes through
:class:`PhysicalMemory`; protection checks live one layer up (the RMP and
the VCPU access path) -- this module is deliberately policy-free.
"""

from __future__ import annotations

from .cycles import CostModel, CycleLedger

PAGE_SIZE = 4096
PAGE_SHIFT = 12


def page_number(addr: int) -> int:
    """Physical page number containing byte address ``addr``."""
    return addr >> PAGE_SHIFT


def page_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its page."""
    return addr & (PAGE_SIZE - 1)


def page_base(ppn: int) -> int:
    """First byte address of physical page ``ppn``."""
    return ppn << PAGE_SHIFT


def pages_spanned(addr: int, length: int) -> range:
    """Physical page numbers touched by ``[addr, addr+length)``."""
    if length <= 0:
        return range(0)
    first = page_number(addr)
    last = page_number(addr + length - 1)
    return range(first, last + 1)


class PhysicalMemory:
    """Byte-addressable physical memory with lazy page allocation."""

    def __init__(self, size_bytes: int, *, cost: CostModel | None = None,
                 ledger: CycleLedger | None = None):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError("memory size must be a positive page multiple")
        self.size = size_bytes
        self.num_pages = size_bytes // PAGE_SIZE
        self._pages: dict[int, bytearray] = {}
        self.cost = cost or CostModel()
        self.ledger = ledger or CycleLedger()

    # -- page-level access -------------------------------------------------

    def page(self, ppn: int) -> bytearray:
        """Backing store for page ``ppn`` (materializing zeros if fresh)."""
        self._check_ppn(ppn)
        buf = self._pages.get(ppn)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._pages[ppn] = buf
        return buf

    def page_is_materialized(self, ppn: int) -> bool:
        """Whether the page has backing storage yet."""
        return ppn in self._pages

    def zero_page(self, ppn: int) -> None:
        """Scrub a page's contents (e.g. before handing it to a new owner)."""
        self._check_ppn(ppn)
        self._pages[ppn] = bytearray(PAGE_SIZE)

    # -- byte-level access ---------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` raw bytes; charges copy cost to the ledger.

        The ``copy`` charge is ``CostModel.copy_cost(length)``, added
        inline after the range check and before any byte moves.
        """
        if addr < 0 or length < 0 or addr + length > self.size:
            self._check_range(addr, length)
        cycles = length * self.cost.copy_per_byte_x1000 // 1000
        ledger = self.ledger
        ledger.total += cycles
        ledger.by_category["copy"] += cycles
        if length == 0:
            return b""
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            # Intra-page fast path: one slice of the backing page (reads
            # never materialize pages -- a fresh page is zeros either
            # way).  ``bytes(buf[a:b])`` beat a memoryview slice at every
            # size measured, 4 B to 4,000 B.
            buf = self._pages.get(addr >> PAGE_SHIFT)
            if buf is None:
                return bytes(length)
            return bytes(buf[off:off + length])
        out = bytearray(length)
        pos = 0
        while pos < length:
            cur = addr + pos
            ppn = page_number(cur)
            off = page_offset(cur)
            chunk = min(length - pos, PAGE_SIZE - off)
            out[pos:pos + chunk] = self.page(ppn)[off:off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes; charges copy cost to the ledger (as
        :meth:`read` does)."""
        length = len(data)
        if addr < 0 or addr + length > self.size:
            self._check_range(addr, length)
        cycles = length * self.cost.copy_per_byte_x1000 // 1000
        ledger = self.ledger
        ledger.total += cycles
        ledger.by_category["copy"] += cycles
        if not length:
            return
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            buf = self._pages.get(addr >> PAGE_SHIFT)
            if buf is None:
                self.page_write(addr >> PAGE_SHIFT, off, data)
            else:
                buf[off:off + length] = data
            return
        pos = 0
        while pos < length:
            cur = addr + pos
            ppn = page_number(cur)
            off = page_offset(cur)
            chunk = min(length - pos, PAGE_SIZE - off)
            self.page(ppn)[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    # -- page-granular raw access (VCPU fast path) ----------------------------

    def page_bytes(self, ppn: int, offset: int, length: int) -> bytes:
        """Uncharged intra-page read: ``length`` bytes at ``offset`` in
        page ``ppn``.

        Used by the VCPU access path, which translates and charges per
        spanned virtual page itself.  The caller guarantees
        ``offset + length <= PAGE_SIZE``.
        """
        buf = self._pages.get(ppn)
        if buf is None:
            self._check_ppn(ppn)
            return bytes(length)
        return bytes(buf[offset:offset + length])

    def page_write(self, ppn: int, offset: int, data: bytes) -> None:
        """Uncharged intra-page write (VCPU fast-path counterpart of
        :meth:`page_bytes`); materializes the page if fresh."""
        buf = self._pages.get(ppn)
        if buf is None:
            self._check_ppn(ppn)
            buf = bytearray(PAGE_SIZE)
            self._pages[ppn] = buf
        buf[offset:offset + len(data)] = data

    # -- helpers --------------------------------------------------------------

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.num_pages:
            raise IndexError(f"ppn {ppn:#x} outside physical memory "
                             f"({self.num_pages} pages)")

    def _check_range(self, addr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if addr < 0 or addr + length > self.size:
            raise IndexError(f"range [{addr:#x}, {addr + length:#x}) outside "
                             f"physical memory of {self.size:#x} bytes")
