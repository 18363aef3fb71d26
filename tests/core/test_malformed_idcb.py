"""Regression: a malformed IDCB request never strands a core.

The OS owns the OS<->MON and OS<->SER IDCB pages, so it can put any bytes
in the request slot.  The trusted body must still write an error reply
and switch back to DomUNT, exactly as it does for a request whose fields
are bad.
"""

import pytest

from repro.hw import VMPL_MON, VMPL_SER, VMPL_UNT
from repro.core.idcb import DEFAULT_IDCB_PAGES
from repro.hw.memory import PAGE_SIZE, page_base
from repro.kernel.layout import direct_map_vaddr

PAYLOADS = {
    "non-utf8": b"\xff\xfe\x00\x81",
    "non-json": b"{op: ping",
    "non-object": b'["op", "ping"]',
    "bad-reply-to": b'{"_reply_to": "x", "op": "ping"}',
    "infinite-reply-to": b'{"_reply_to": Infinity, "op": "ping"}',
    # Nested past the codec's MAX_DEPTH.
    "deep-nesting": b"[" * 3000 + b"]" * 3000,
}


def os_writes_request(veil, idcb, payload: bytes) -> None:
    """The OS scribbles raw bytes into the request slot of ``idcb``."""
    frame = len(payload).to_bytes(4, "little") + payload
    veil.boot_core.write(direct_map_vaddr(page_base(idcb.ppn)), frame)


def os_writes_header(veil, idcb, length: int) -> None:
    """The OS puts a length header of its choosing in front of a ping."""
    frame = length.to_bytes(4, "little") + b'{"op": "ping"}'
    veil.boot_core.write(direct_map_vaddr(page_base(idcb.ppn)), frame)


#: Length headers no request slot can hold: none, one byte more than
#: the slot holds after its header, and the largest a header can say.
BAD_LENGTHS = {"zero": 0,
               "past-slot": DEFAULT_IDCB_PAGES * PAGE_SIZE // 2 - 3,
               "max": 0xFFFFFFFF}


def enter(veil, target_vmpl: int) -> dict:
    """The gateway's round trip, minus serializing a request."""
    core = veil.boot_core
    veil.gateway._switch(core, target_vmpl)
    if target_vmpl == VMPL_MON:
        veil.veilmon.on_entry(core, from_vmpl=VMPL_UNT)
        idcb = veil.veilmon.os_idcbs[core.cpu_index]
    else:
        veil.veilmon.on_ser_entry(core)
        idcb = veil.veilmon.ser_idcbs[core.cpu_index]
    return idcb.read_reply(veil.machine.memory)


@pytest.mark.parametrize("shape", sorted(PAYLOADS))
@pytest.mark.parametrize("target_vmpl", [VMPL_MON, VMPL_SER],
                         ids=["monitor", "service"])
def test_malformed_request_gets_error_reply(veil, target_vmpl, shape):
    idcbs = (veil.veilmon.os_idcbs if target_vmpl == VMPL_MON
             else veil.veilmon.ser_idcbs)
    os_writes_request(veil, idcbs[veil.boot_core.cpu_index],
                      PAYLOADS[shape])
    reply = enter(veil, target_vmpl)
    assert reply["status"] == "error"
    assert reply["reason"].startswith("malformed request: ")
    assert veil.boot_core.vmpl == VMPL_UNT
    assert not veil.machine.halted


@pytest.mark.parametrize("shape", sorted(BAD_LENGTHS))
@pytest.mark.parametrize("target_vmpl", [VMPL_MON, VMPL_SER],
                         ids=["monitor", "service"])
def test_bad_length_header_gets_error_reply(veil, target_vmpl, shape):
    idcbs = (veil.veilmon.os_idcbs if target_vmpl == VMPL_MON
             else veil.veilmon.ser_idcbs)
    os_writes_header(veil, idcbs[veil.boot_core.cpu_index],
                     BAD_LENGTHS[shape])
    reply = enter(veil, target_vmpl)
    assert reply["status"] == "error"
    assert reply["reason"].startswith("malformed request: ")
    assert veil.boot_core.vmpl == VMPL_UNT
    assert not veil.machine.halted
    # The core keeps serving well-formed requests.
    assert veil.gateway.call_monitor(veil.boot_core, {
        "op": "ping", "payload": 7}) == {"status": "ok", "echo": 7}


@pytest.mark.parametrize("shape", sorted(PAYLOADS))
def test_core_keeps_working_after_malformed_request(veil, shape):
    os_writes_request(veil, veil.veilmon.os_idcbs[0], PAYLOADS[shape])
    enter(veil, VMPL_MON)
    reply = veil.gateway.call_monitor(veil.boot_core,
                                      {"op": "ping", "payload": 7})
    assert reply == {"status": "ok", "echo": 7}


def test_infinite_handler_argument_gets_error_reply(veil):
    # int(float("inf")) raises OverflowError, not ValueError.
    reply = veil.gateway.call_monitor(veil.boot_core, {
        "op": "pvalidate", "ppn": float("inf"), "validate": True})
    assert reply["status"] == "error"
    assert reply["reason"].startswith("malformed request: OverflowError")
    assert veil.boot_core.vmpl == VMPL_UNT


@pytest.mark.parametrize("payload", [b'{"status": "ok"}', b'{"status":"ok"}'],
                         ids=["constant-frame", "compact"])
@pytest.mark.parametrize("target_vmpl", [VMPL_MON, VMPL_SER],
                         ids=["monitor", "service"])
def test_ok_frame_as_request_is_an_unknown_op(veil, target_vmpl, payload):
    # The constant reply frame and its compact spelling decode alike,
    # even when the OS writes them into the request slot.
    idcbs = (veil.veilmon.os_idcbs if target_vmpl == VMPL_MON
             else veil.veilmon.ser_idcbs)
    os_writes_request(veil, idcbs[veil.boot_core.cpu_index], payload)
    reply = enter(veil, target_vmpl)
    assert reply == {"status": "error", "reason": "unknown op None"}
    assert veil.boot_core.vmpl == VMPL_UNT
