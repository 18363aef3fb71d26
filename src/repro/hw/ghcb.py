"""Guest–Hypervisor Communication Block (GHCB) and the frame format.

A GHCB is one *shared* (unencrypted) physical page through which a VCPU
passes explicit state to the hypervisor on non-automatic exits.  The guest
publishes the GHCB's location by writing its physical address to the GHCB
MSR; the hypervisor reads that MSR at exit time to find the block.

Messages are structured records serialized into the page bytes, so both
sides genuinely communicate through the simulated shared memory (and pay
its copy costs) rather than through Python object references.

This module owns the one frame format both the GHCB and the IDCBs
(:mod:`repro.core.idcb`) use: a 4-byte little-endian payload length,
then the message as :func:`repro.codec.encode` writes it.
:func:`encode_frame`, :func:`frame_length` and :func:`decode_payload`
frame and unframe it; callers move the bytes through
:meth:`PhysicalMemory.read` / ``write`` so every frame byte is charged
as a copy.  The less-privileged side writes these pages, so a payload
is decoded with :func:`repro.codec.decode`, which refuses garbage and
deep nesting the same way from any caller.

Three kinds of frame dominate the traffic.  Two are encoded once at
import: the four ``{"op": "domain_switch", "target_vmpl": v}`` requests
(:data:`SWITCH_FRAMES`) and the ``{"status": "ok"}`` reply
(:data:`OK_FRAME`).  The third is the VeilS-LOG append every audited
syscall sends to DomSER, ``{"_reply_to": r, "op": "log_append",
"record_hex": h}``: it is encoded from a template.  The bytes in memory
and the copy costs charged are the same as for the codec path.

Which side recognizes which frame:

* the guest writes a switch request only with
  :meth:`VirtualCpu.switch_to <repro.hw.vcpu.VirtualCpu.switch_to>`,
  and the hypervisor looks its payload up in :data:`SWITCH_PAYLOADS`
  before decoding anything, so a switch is served from its bytes; any
  other payload, a switch request spelled another way included, goes
  to :func:`decode_payload`;
* :func:`decode_payload`, which every IDCB read and every guest-side
  GHCB read goes through, recognizes the ``ok`` reply and exactly the
  byte form the log-append template writes (a decimal ``r`` without a
  leading zero, an ASCII-alphanumeric ``h``) before falling back to
  the codec.
"""

from __future__ import annotations

import functools

from ..codec import decode, encode
from ..errors import SimulationError
from .memory import PAGE_SIZE, PhysicalMemory, page_base
from .rmp import NUM_VMPLS

#: Byte length of a frame's little-endian payload-length header.
FRAME_HEADER = 4

_OK_MESSAGE = {"status": "ok"}


def _encode(message) -> bytes:
    blob = encode(message)
    return len(blob).to_bytes(FRAME_HEADER, "little") + blob


#: The ``{"status": "ok"}`` reply frame.
OK_FRAME = _encode(_OK_MESSAGE)

#: ``target_vmpl -> frame`` for the domain-switch request to each VMPL.
SWITCH_FRAMES = {
    vmpl: _encode({"op": "domain_switch", "target_vmpl": vmpl})
    for vmpl in range(NUM_VMPLS)}

#: ``payload bytes -> target_vmpl`` for the four :data:`SWITCH_FRAMES`:
#: the hypervisor's table of the switch requests it serves without
#: decoding.  Exactly the codec's bytes map to a VMPL.
SWITCH_PAYLOADS = {frame[FRAME_HEADER:]: vmpl
                   for vmpl, frame in SWITCH_FRAMES.items()}

#: The ``ok`` reply's payload bytes.
_OK_PAYLOAD = OK_FRAME[FRAME_HEADER:]

#: The log-append payload around its two fields (sorted keys, the
#: encoder's default separators).
_APPEND_HEAD = b'{"_reply_to": '
_APPEND_MID = b', "op": "log_append", "record_hex": "'
_APPEND_TAIL = b'"}'
_APPEND_FORM = _APPEND_HEAD + b"%d" + _APPEND_MID + b"%s" + _APPEND_TAIL
#: Longer ``_reply_to`` digit strings go to the codec (whose parser also
#: enforces the interpreter's integer-string limit).
_APPEND_MAX_DIGITS = 18


def _append_payload(message: dict) -> "bytes | None":
    """The log-append payload bytes, or None for any other message."""
    reply_to = message.get("_reply_to")
    record_hex = message.get("record_hex")
    if (len(message) != 3 or type(reply_to) is not int or
            type(record_hex) is not str or not record_hex.isascii()):
        return None
    body = record_hex.encode()
    # An ASCII-alphanumeric string needs no JSON escape, and an exact
    # int prints as int.__repr__ does: the encoder's bytes.
    return _APPEND_FORM % (reply_to, body) if body.isalnum() else None


def _decode_append(payload: bytes) -> "dict | None":
    """The message a log-append payload encodes, or None.

    ``payload`` starts with :data:`_APPEND_HEAD`.  Matches only the
    exact bytes :func:`_append_payload` writes; any other form
    (whitespace, escapes, a leading zero, more keys) is left to the
    codec.
    """
    mid = payload.find(_APPEND_MID, len(_APPEND_HEAD))
    if mid < 0 or not payload.endswith(_APPEND_TAIL):
        return None
    digits = payload[len(_APPEND_HEAD):mid]
    body = payload[mid + len(_APPEND_MID):-len(_APPEND_TAIL)]
    if (not digits.isdigit() or len(digits) > _APPEND_MAX_DIGITS or
            (digits[0] == 0x30 and len(digits) > 1) or
            not body.isalnum()):
        return None
    return {"_reply_to": int(digits), "op": "log_append",
            "record_hex": body.decode("ascii")}


def encode_frame(message: dict) -> bytes:
    """The length-prefixed frame bytes for ``message``."""
    if type(message) is dict and message.get("op") == "log_append":
        payload = _append_payload(message)
        if payload is not None:
            return len(payload).to_bytes(FRAME_HEADER, "little") + payload
    # A dict equal to {"status": "ok"} encodes to exactly OK_FRAME.
    if message == _OK_MESSAGE:
        return OK_FRAME
    return _encode(message)


def frame_length(header: bytes) -> int:
    """The payload length a frame header announces."""
    return int.from_bytes(header, "little")


def decode_payload(payload: bytes):
    """Decode a frame's payload bytes into a fresh object.

    Raises :class:`~repro.errors.CodecError` (a ``ValueError``) when
    the bytes are not UTF-8 JSON or nest deeper than
    :data:`~repro.codec.MAX_DEPTH`; the decoded value need not be an
    object.
    """
    if payload.startswith(_APPEND_HEAD):
        message = _decode_append(payload)
        if message is not None:
            return message
    elif payload == _OK_PAYLOAD:
        return dict(_OK_MESSAGE)
    return decode(payload)


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

    def read_message(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current message from the GHCB page.

        Raises :class:`~repro.errors.CodecError` (a ``ValueError``) when
        the page holds bytes :func:`decode_payload` refuses; the decoded
        value need not be an object.
        """
        length = frame_length(mem.read(self.gpa, FRAME_HEADER))
        if length == 0 or length > PAGE_SIZE - FRAME_HEADER:
            raise SimulationError(f"GHCB holds no valid message ({length})")
        return decode_payload(mem.read(self.gpa + FRAME_HEADER, length))

    def clear(self, mem: PhysicalMemory) -> None:
        """Invalidate the current message."""
        mem.write(self.gpa, b"\x00" * FRAME_HEADER)


@functools.lru_cache(maxsize=1024)
def ghcb_view(ppn: int) -> Ghcb:
    """The shared :class:`Ghcb` view of page ``ppn``.

    A view holds only the page's number and address, so one per page
    serves every caller; each enclave entry and exit and each VMGEXIT
    reuses it rather than building its own.
    """
    return Ghcb(ppn)
