"""Guest–Hypervisor Communication Block (GHCB).

A GHCB is one *shared* (unencrypted) physical page through which a VCPU
passes explicit state to the hypervisor on non-automatic exits.  The guest
publishes the GHCB's location by writing its physical address to the GHCB
MSR; the hypervisor reads that MSR at exit time to find the block.

Messages are structured records serialized into the page bytes, so both
sides genuinely communicate through the simulated shared memory (and pay
its copy costs) rather than through Python object references.

The four ``{"op": "domain_switch", "target_vmpl": v}`` messages are the
bulk of all GHCB traffic, so their length-prefixed frames are encoded
once at import (:data:`SWITCH_FRAMES`).  Writing one copies the constant
frame; reading one still reads the page bytes and looks the payload up
before falling back to ``json.loads``.  The bytes in the page and the
copy costs charged are the same as for the encoder path.
"""

from __future__ import annotations

import json

from ..errors import SimulationError
from .memory import PAGE_SIZE, PhysicalMemory, page_base
from .rmp import NUM_VMPLS

#: Byte length prefix for serialized messages.
_LEN_BYTES = 4

#: Shared encoder: ``json.dumps(message, sort_keys=True)``
#: constructs a fresh encoder per call; reusing one is byte-identical
#: output on the GHCB hot path (every hypercall serializes twice).
_ENCODER = json.JSONEncoder(sort_keys=True)


def _encode_frame(message: dict) -> bytes:
    """The length-prefixed page bytes for ``message``."""
    blob = _ENCODER.encode(message).encode("utf-8")
    if len(blob) + _LEN_BYTES > PAGE_SIZE:
        raise SimulationError(
            f"GHCB message of {len(blob)} bytes exceeds one page")
    return len(blob).to_bytes(_LEN_BYTES, "little") + blob


#: ``target_vmpl -> frame`` for the domain-switch request to each VMPL.
SWITCH_FRAMES = {
    vmpl: _encode_frame({"op": "domain_switch", "target_vmpl": vmpl})
    for vmpl in range(NUM_VMPLS)}

#: Reverse lookup, ``payload bytes -> target_vmpl``.
_SWITCH_TARGETS = {frame[_LEN_BYTES:]: vmpl
                   for vmpl, frame in SWITCH_FRAMES.items()}


class Ghcb:
    """Helper view over a shared physical page used as a GHCB."""

    def __init__(self, ppn: int):
        self.ppn = ppn

    @property
    def gpa(self) -> int:
        return page_base(self.ppn)

    # -- message passing ----------------------------------------------------

    def write_message(self, mem: PhysicalMemory, message: dict) -> None:
        """Serialize ``message`` into the GHCB page."""
        frame = None
        if len(message) == 2 and message.get("op") == "domain_switch":
            target = message.get("target_vmpl")
            # ``type() is int``: True == 1 would find VMPL-1's frame, but
            # json encodes it as ``true``.
            if type(target) is int:
                frame = SWITCH_FRAMES.get(target)
        mem.write(self.gpa, frame or _encode_frame(message))

    def read_message(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current message from the GHCB page.

        Raises :class:`ValueError` (``UnicodeDecodeError`` or
        ``json.JSONDecodeError``) when the page holds bytes that are not
        UTF-8 JSON; the decoded value need not be an object.
        """
        length = int.from_bytes(mem.read(self.gpa, _LEN_BYTES), "little")
        if length == 0 or length > PAGE_SIZE - _LEN_BYTES:
            raise SimulationError(f"GHCB holds no valid message ({length})")
        blob = mem.read(self.gpa + _LEN_BYTES, length)
        target = _SWITCH_TARGETS.get(blob)
        if target is not None:
            return {"op": "domain_switch", "target_vmpl": target}
        return json.loads(blob.decode("utf-8"))

    def clear(self, mem: PhysicalMemory) -> None:
        """Invalidate the current message."""
        mem.write(self.gpa, b"\x00" * _LEN_BYTES)
