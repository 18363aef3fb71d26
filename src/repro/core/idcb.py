"""Inter-Domain Communication Blocks (paper section 5.2).

IDCBs are *private* guest pages (unlike the hypervisor-visible GHCB) used
for bi-directional communication between two domains.  They are allocated
in the **less-privileged** domain's memory so both sides can access them,
and at per-VCPU granularity to avoid contention.

An IDCB spans one or more (not necessarily contiguous) physical pages:
half the region is the request slot, half the reply slot.  Requests and
replies are serialized through the simulated memory system so copy costs
are charged on both sides of the exchange.  The frame format is the
GHCB's (:mod:`repro.hw.ghcb`); this module only maps slot offsets onto
the backing pages.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..hw.ghcb import FRAME_HEADER, decode_payload, encode_frame, \
    frame_length
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

#: Default IDCB size in pages (32 KiB: large enough for page-list
#: arguments like KCI activation and enclave layouts).
DEFAULT_IDCB_PAGES = 8


class Idcb:
    """One IDCB region shared between two domains on one VCPU."""

    def __init__(self, ppns, *, low_vmpl: int, high_vmpl: int):
        if isinstance(ppns, int):
            ppns = [ppns]
        if not ppns:
            raise SimulationError("IDCB needs at least one page")
        self.ppns = list(ppns)
        self.low_vmpl = low_vmpl      # less privileged side (owns memory)
        self.high_vmpl = high_vmpl
        self.size = len(self.ppns) * PAGE_SIZE
        self.slot_size = self.size // 2

    @property
    def ppn(self) -> int:
        return self.ppns[0]

    # -- scatter I/O over the backing pages ---------------------------------

    def _write_bytes(self, mem: PhysicalMemory, offset: int,
                     data: bytes) -> None:
        pos = 0
        while pos < len(data):
            page_index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            mem.write((self.ppns[page_index] << PAGE_SHIFT) + in_page,
                      data[pos:pos + chunk])
            pos += chunk

    def _read_bytes(self, mem: PhysicalMemory, offset: int,
                    length: int) -> bytes:
        out = bytearray()
        pos = 0
        while pos < length:
            page_index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            out.extend(mem.read(
                (self.ppns[page_index] << PAGE_SHIFT) + in_page, chunk))
            pos += chunk
        return bytes(out)

    # -- message slots ---------------------------------------------------------

    def _write(self, mem: PhysicalMemory, offset: int, payload: dict) -> None:
        frame = encode_frame(payload)
        if len(frame) > self.slot_size:
            raise SimulationError(
                f"IDCB message of {len(frame) - FRAME_HEADER}B exceeds "
                f"the {self.slot_size}B slot")
        page_index, in_page = divmod(offset, PAGE_SIZE)
        if in_page + len(frame) <= PAGE_SIZE:
            mem.write((self.ppns[page_index] << PAGE_SHIFT) + in_page, frame)
        else:
            self._write_bytes(mem, offset, frame)

    def _read(self, mem: PhysicalMemory, offset: int) -> dict:
        """Decode one slot.

        The less-privileged side owns the pages and can write anything
        into them.  Raises :class:`~repro.errors.SimulationError` when
        the length header announces no payload or more than the slot
        holds, and :class:`ValueError` when the bytes are not UTF-8 JSON
        or decode to something other than an object.
        """
        # Slots start at a multiple of half a page, so the header never
        # crosses a backing page.
        page_index, in_page = divmod(offset, PAGE_SIZE)
        addr = (self.ppns[page_index] << PAGE_SHIFT) + in_page
        length = frame_length(mem.read(addr, FRAME_HEADER))
        if length == 0 or length > self.slot_size - FRAME_HEADER:
            raise SimulationError(
                f"IDCB slot holds no valid message: length header "
                f"{length} is outside 1..{self.slot_size - FRAME_HEADER}")
        if in_page + FRAME_HEADER + length <= PAGE_SIZE:
            blob = mem.read(addr + FRAME_HEADER, length)
        else:
            blob = self._read_bytes(mem, offset + FRAME_HEADER, length)
        message = decode_payload(blob)
        if not isinstance(message, dict):
            raise ValueError(f"IDCB message is a JSON "
                             f"{type(message).__name__}, not an object")
        return message

    def write_request(self, mem: PhysicalMemory, payload: dict) -> None:
        """Serialize a request into the request slot."""
        self._write(mem, 0, payload)

    def read_request(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current request."""
        return self._read(mem, 0)

    def write_reply(self, mem: PhysicalMemory, payload: dict) -> None:
        """Serialize a reply into the reply slot."""
        self._write(mem, self.slot_size, payload)

    def read_reply(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current reply."""
        return self._read(mem, self.slot_size)
