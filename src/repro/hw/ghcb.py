"""Guest–Hypervisor Communication Block (GHCB) and the frame codec.

A GHCB is one *shared* (unencrypted) physical page through which a VCPU
passes explicit state to the hypervisor on non-automatic exits.  The guest
publishes the GHCB's location by writing its physical address to the GHCB
MSR; the hypervisor reads that MSR at exit time to find the block.

Messages are structured records serialized into the page bytes, so both
sides genuinely communicate through the simulated shared memory (and pay
its copy costs) rather than through Python object references.

This module owns the one frame format both the GHCB and the IDCBs
(:mod:`repro.core.idcb`) use: a 4-byte little-endian payload length,
then the sorted-key JSON of the message.  :func:`encode_frame`,
:func:`frame_length` and :func:`decode_payload` are the whole codec;
callers move the bytes through :meth:`PhysicalMemory.read` / ``write``
so every frame byte is charged as a copy.

Two kinds of frame dominate the traffic and are encoded once at import:
the four ``{"op": "domain_switch", "target_vmpl": v}`` requests
(:data:`SWITCH_FRAMES`, written by :meth:`Ghcb.write_switch`) and the
``{"status": "ok"}`` reply (:data:`OK_FRAME`).  Decoding looks their
payload bytes up before falling back to ``json.loads``.  The bytes in
memory and the copy costs charged are the same as for the encoder path.
"""

from __future__ import annotations

import json

from ..errors import SimulationError
from .memory import PAGE_SIZE, PhysicalMemory, page_base
from .rmp import NUM_VMPLS

#: Byte length of a frame's little-endian payload-length header.
FRAME_HEADER = 4

#: Shared encoder: ``json.dumps(message, sort_keys=True)`` constructs a
#: fresh encoder per call; reusing one gives byte-identical output.
_ENCODER = json.JSONEncoder(sort_keys=True)

_OK_MESSAGE = {"status": "ok"}


def _encode(message) -> bytes:
    blob = _ENCODER.encode(message).encode("utf-8")
    return len(blob).to_bytes(FRAME_HEADER, "little") + blob


#: The ``{"status": "ok"}`` reply frame.
OK_FRAME = _encode(_OK_MESSAGE)

#: ``target_vmpl -> frame`` for the domain-switch request to each VMPL.
SWITCH_FRAMES = {
    vmpl: _encode({"op": "domain_switch", "target_vmpl": vmpl})
    for vmpl in range(NUM_VMPLS)}

#: ``payload bytes -> message`` for every pre-encoded frame.
_DECODED = {frame[FRAME_HEADER:]: json.loads(frame[FRAME_HEADER:])
            for frame in (OK_FRAME, *SWITCH_FRAMES.values())}


def encode_frame(message: dict) -> bytes:
    """The length-prefixed frame bytes for ``message``."""
    # A dict equal to {"status": "ok"} encodes to exactly OK_FRAME.
    if message == _OK_MESSAGE:
        return OK_FRAME
    return _encode(message)


def frame_length(header: bytes) -> int:
    """The payload length a frame header announces."""
    return int.from_bytes(header, "little")


def decode_payload(payload: bytes):
    """Decode a frame's payload bytes into a fresh object.

    Raises :class:`ValueError` (``UnicodeDecodeError`` or
    ``json.JSONDecodeError``) when the bytes are not UTF-8 JSON; the
    decoded value need not be an object.
    """
    known = _DECODED.get(payload)
    if known is not None:
        return dict(known)
    return json.loads(payload.decode("utf-8"))


class Ghcb:
    """Helper view over a shared physical page used as a GHCB."""

    __slots__ = ("ppn", "gpa")

    def __init__(self, ppn: int):
        self.ppn = ppn
        self.gpa = page_base(ppn)

    # -- message passing ----------------------------------------------------

    def write_message(self, mem: PhysicalMemory, message: dict) -> None:
        """Serialize ``message`` into the GHCB page."""
        frame = encode_frame(message)
        if len(frame) > PAGE_SIZE:
            raise SimulationError(
                f"GHCB message of {len(frame) - FRAME_HEADER} bytes "
                "exceeds one page")
        mem.write(self.gpa, frame)

    def write_switch(self, mem: PhysicalMemory, vmpl: int) -> None:
        """Ask the hypervisor to switch this core to ``vmpl``."""
        frame = SWITCH_FRAMES.get(vmpl)
        if frame is None:
            # Not a VMPL: the hypervisor halts the CVM on this request.
            self.write_message(mem, {"op": "domain_switch",
                                     "target_vmpl": vmpl})
        else:
            mem.write(self.gpa, frame)

    def read_message(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current message from the GHCB page.

        Raises :class:`ValueError` (``UnicodeDecodeError`` or
        ``json.JSONDecodeError``) when the page holds bytes that are not
        UTF-8 JSON; the decoded value need not be an object.
        """
        length = frame_length(mem.read(self.gpa, FRAME_HEADER))
        if length == 0 or length > PAGE_SIZE - FRAME_HEADER:
            raise SimulationError(f"GHCB holds no valid message ({length})")
        return decode_payload(mem.read(self.gpa + FRAME_HEADER, length))

    def clear(self, mem: PhysicalMemory) -> None:
        """Invalidate the current message."""
        mem.write(self.gpa, b"\x00" * FRAME_HEADER)
