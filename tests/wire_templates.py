"""The byte templates of the hot wire frames, checked against the codec.

Five hot frames skip the generic encoder: the GHCB's domain-switch
requests and ``ok`` reply, the VeilS-LOG ``log_append`` frame (encoded
from a template, read back by a recognizer), ``AuditEntry.serialize``,
and the fleet's request and reply envelopes.  Each must write exactly
the bytes :mod:`repro.codec` writes for the same input, fall back to it
for any other input, and read back as ``json.loads`` reads.  The
hypervisor's table of switch payloads (``SWITCH_PAYLOADS``, read before
anything is decoded) must map exactly the codec's bytes of a switch
request to its VMPL, and nothing else to any VMPL.

:data:`TEMPLATES` names each template with the inputs to draw, the
template path and the codec path.  :func:`check_template` is the one
property: both paths give the same outcome, and the bytes written decode
(through the frame's own decoder) exactly as ``json.loads`` decodes
them.  ``tests/test_codec.py`` draws every template through it; the
unit tests next to each template run their pinned cases through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import strategies as st

from repro.codec import decode, encode, encode_compact
from repro.cluster.net import encode_reply, encode_request
from repro.errors import SimulationError
from repro.hw import SevSnpMachine
from repro.hw.ghcb import (FRAME_HEADER, SWITCH_PAYLOADS, Ghcb,
                           decode_payload, encode_frame, frame_length)
from repro.hw.memory import PAGE_SIZE
from repro.hw.rmp import NUM_VMPLS
from repro.kernel.audit import AuditEntry
from repro.scope.context import TraceContext

#: JSON-able values, nested a few levels.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

#: Ids as a context or envelope may carry them: exact ints take the
#: templates; bools, floats, strings and None must not.
IDS = st.one_of(st.integers(), st.integers(min_value=-5, max_value=5),
                st.booleans(), st.none(), st.floats(allow_nan=False),
                st.text(max_size=3))
CONTEXTS = st.builds(TraceContext, trace_id=IDS, span_id=IDS,
                     parent_id=IDS)


def framed(payload: bytes) -> bytes:
    """``payload`` behind its little-endian length header."""
    return len(payload).to_bytes(FRAME_HEADER, "little") + payload


# -- the GHCB / IDCB frames --------------------------------------------------

def switch_message(vmpl) -> dict:
    """The domain-switch request to ``vmpl``."""
    return {"op": "domain_switch", "target_vmpl": vmpl}


def append_message(reply_to, record_hex) -> dict:
    """The dict ``MonitorGateway.call_service`` writes for a log append."""
    return {"op": "log_append", "record_hex": record_hex,
            "_reply_to": reply_to}


def switch_request(vmpl, ppn: int = 1) -> SevSnpMachine:
    """A bare machine whose core asked for a switch to ``vmpl`` through
    the GHCB at page ``ppn``.

    The core runs no instance, so :meth:`VirtualCpu.switch_to` stops at
    the VMGEXIT's seal, with its frame written and the exit charged.
    """
    machine = SevSnpMachine(memory_bytes=4 * PAGE_SIZE, num_cores=1)
    with pytest.raises(SimulationError, match="without a running instance"):
        machine.core(0).switch_to(Ghcb(ppn), vmpl)
    return machine


def switch_page(vmpl) -> bytes:
    """The frame :meth:`VirtualCpu.switch_to` leaves in the page."""
    mem = switch_request(vmpl).memory
    length = frame_length(mem.read(PAGE_SIZE, FRAME_HEADER))
    return mem.read(PAGE_SIZE, FRAME_HEADER + length)


#: A recognized log-append payload, the base of the near misses.
APPEND = encode(append_message(3, "00ff"))

#: Payload edits a less-privileged writer could make to a recognized
#: frame; the recognizers must read each as ``json.loads`` does.
NEAR_MISSES = [
    APPEND,
    APPEND.replace(b": 3,", b": 03,"),           # leading zero
    APPEND.replace(b": 3,", b": 0,"),
    APPEND.replace(b": 3,", b": -3,"),
    APPEND.replace(b": 3,", b": 3.0,"),
    APPEND.replace(b": 3,", b": 1" + b"9" * 30 + b","),
    APPEND.replace(b"00ff", b"\\u0061ff"),       # JSON escape
    APPEND.replace(b"00ff", b"00FF"),            # uppercase hex
    APPEND.replace(b"00ff", b""),                # empty record
    APPEND.replace(b"00ff", b"00 ff"),
    APPEND.replace(b"00ff", "00é".encode()),  # non-ASCII
    APPEND + b"x",                               # trailing bytes
    APPEND + b" ",
    APPEND[:-1],
    APPEND.replace(b'"_reply_to": 3, ', b""),    # no _reply_to
    APPEND.replace(b"log_append", b"log_appenD"),
    APPEND.replace(b", ", b","),
]

#: Spellings of the pre-encoded constant frames and their neighbours.
CONSTANT_PAYLOADS = [
    b'{"status": "ok"}', b'{"status":"ok"}',
    b'{"op": "domain_switch", "target_vmpl": 2}',
    b'{"target_vmpl": 2, "op": "domain_switch"}', b"[1, 2]", b"7"]

#: The codec's bytes of the switch request to each VMPL.
SWITCH_PAYLOAD_BYTES = [encode(switch_message(vmpl))
                        for vmpl in range(NUM_VMPLS)]

#: Other spellings of a switch request, and its near neighbours.
SWITCH_SPELLINGS = [
    b'{"target_vmpl": 2, "op": "domain_switch"}',
    b'{"target_vmpl":3,"op":"domain_switch"}',
    b'{"op":"domain_switch","target_vmpl":1}',
    b'{"op": "domain_switch", "target_vmpl": 2.0}',
    b'{"op": "domain_switch", "target_vmpl": true}',
    b'{"op": "domain_switch", "target_vmpl": "2"}',
    b'{"op": "domain_switch", "target_vmpl": 02}',
    b'{"op": "domain_switch", "target_vmpl": 4}',
    b'{"op": "domain_switch", "target_vmpl": -1}',
    b'{"op": "domain_switch", "target_vmpl": 2} ',
    b' {"op": "domain_switch", "target_vmpl": 2}',
    b'{"op": "domain_switcH", "target_vmpl": 2}',
    b'{"op": "domain_switch", "target_vmpl": 2, "x": 0}',
    b'{"op": "domain_switch", "target_vmpl": 1, "target_vmpl": 2}',
]


def switch_target(payload: bytes):
    """The reference for the switch-payload table: the VMPL a payload
    asks for when it is the codec's bytes of a switch request to a
    VMPL, else None."""
    try:
        message = json_loads(payload)
    except ValueError:
        return None
    if type(message) is not dict or \
            message.keys() != {"op", "target_vmpl"}:
        return None
    vmpl = message["target_vmpl"]
    if message["op"] != "domain_switch" or type(vmpl) is not int or \
            not 0 <= vmpl < NUM_VMPLS:
        return None
    return vmpl if encode(message) == payload else None


#: Records the template must hand to the encoder (they need escapes,
#: are not ASCII or are empty).
ESCAPED_RECORDS = ['a"b', "a\\b", "a b", "a\x7f", "a\x00", "é", ""]

#: Messages near the switch and ``ok`` frames that take the encoder.
NEAR_CONSTANTS = [
    switch_message(True), switch_message(7),
    dict(switch_message(1), extra=0),
    {"status": "ok", "extra": 1}, {"status": "OK"}, {"state": "ok"},
    {"status": "ok"}]

RECORD_HEX = st.one_of(
    st.text(), st.text(alphabet="0123456789abcdefABCDEF"),
    st.text(st.characters(max_codepoint=127)),
    st.binary().map(bytes.hex), st.integers(),
    st.sampled_from(ESCAPED_RECORDS))

GHCB_MESSAGES = st.one_of(
    st.builds(append_message,
              st.one_of(st.integers(), st.booleans(), st.none()),
              RECORD_HEX),
    st.builds(lambda m, extra: dict(m, extra=extra),
              st.builds(append_message, st.integers(), RECORD_HEX),
              st.integers()),
    st.sampled_from(NEAR_CONSTANTS),
    st.builds(switch_message, st.integers() | st.booleans()),
    st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3))

VMPLS = st.one_of(st.integers(min_value=0, max_value=3),
                  st.sampled_from([4, -1, 2 ** 70, True, 1.0]),
                  st.integers())

#: Payload bytes the OS could leave in a GHCB or IDCB.
PAYLOADS = st.one_of(
    st.sampled_from(NEAR_MISSES + CONSTANT_PAYLOADS),
    st.builds(lambda reply_to, record: encode(append_message(
        reply_to, record)),
        st.integers(min_value=-10 ** 6, max_value=10 ** 20),
        st.binary(max_size=600).map(bytes.hex)),
    st.builds(lambda body, tail: APPEND[:20] + body + APPEND[20:] + tail,
              st.binary(max_size=80), st.binary(max_size=8)),
    st.builds(lambda body, close: b'{"_reply_to": ' + body + close,
              st.binary(max_size=80), st.sampled_from([b"", b'"}'])))


#: Payloads for the switch-payload table: its entries, other spellings,
#: every single-byte edit and cut of an entry, and the frame payloads.
SWITCH_PAYLOAD_INPUTS = st.one_of(
    st.sampled_from(SWITCH_PAYLOAD_BYTES + SWITCH_SPELLINGS +
                    CONSTANT_PAYLOADS + NEAR_MISSES),
    st.builds(lambda vmpl: encode(switch_message(vmpl)), VMPLS),
    st.builds(lambda payload, index, byte:
              payload[:index] + bytes([byte]) + payload[index + 1:],
              st.sampled_from(SWITCH_PAYLOAD_BYTES),
              st.integers(min_value=0, max_value=41),
              st.integers(min_value=0, max_value=255)),
    st.builds(lambda payload, cut: payload[:cut],
              st.sampled_from(SWITCH_PAYLOAD_BYTES),
              st.integers(min_value=0, max_value=41)),
    PAYLOADS)


# -- the audit record and the fleet envelopes --------------------------------

def audit_record(entry: AuditEntry) -> dict:
    """The record an :class:`AuditEntry` serializes."""
    return {"seq": entry.seq, "cycles": entry.cycles, "pid": entry.pid,
            "kind": entry.kind, "detail": entry.detail}


AUDIT_ENTRIES = st.builds(
    AuditEntry,
    seq=st.one_of(st.integers(), st.booleans(), st.floats()),
    cycles=st.one_of(st.integers(min_value=0), st.booleans()),
    pid=st.one_of(st.integers(), st.booleans()),
    kind=st.text(max_size=12),
    detail=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))

#: ``(request_id, ctx)`` pairs where one id is not an exact int.
NON_INT_IDS = {
    "bool-id": (True, TraceContext(1, 1, 0)),
    "bool-trace": (5, TraceContext(True, 1, 0)),
    "bool-span": (5, TraceContext(1, False, 0)),
    "bool-parent": (5, TraceContext(1, 1, True)),
    "float-parent": (5, TraceContext(1, 1, 1.0)),
    "float-id": (5.0, TraceContext(1, 1, None)),
}


def request_envelope(request) -> dict:
    """The dict the request envelope template encodes."""
    request_id, sealed, ctx = request
    return {"kind": "request", "request_id": request_id,
            "record_hex": sealed.hex(), "trace": ctx.as_wire()}


def reply_envelope(args) -> dict:
    """The dict the reply envelope template encodes."""
    reply, request_id, ctx = args
    envelope = dict(reply, request_id=request_id)
    if ctx is not None:
        envelope["trace"] = ctx.as_wire()
    return envelope


REQUESTS = st.one_of(
    st.tuples(IDS, st.binary(max_size=120), CONTEXTS),
    st.sampled_from([(request_id, b"\x01", ctx)
                     for request_id, ctx in NON_INT_IDS.values()]))

REPLIES = st.one_of(
    st.tuples(st.one_of(
        st.binary(max_size=120).map(
            lambda b: {"status": "ok", "record_hex": b.hex()}),
        st.fixed_dictionaries({"status": st.sampled_from(["ok", "error"]),
                               "record_hex": st.text(max_size=6)}),
        st.fixed_dictionaries({"status": st.just("error"),
                               "reason": st.text(max_size=6)}),
        st.fixed_dictionaries({"status": st.just("ok"),
                               "record_hex": st.just("00"),
                               "extra": IDS})),
        IDS, st.none() | CONTEXTS),
    st.sampled_from([({"status": "ok", "record_hex": "01"}, request_id, ctx)
                     for request_id, ctx in NON_INT_IDS.values()]))


# -- the registry and the property --------------------------------------------

def json_loads(payload: bytes):
    """The reference decoder: ``json.loads`` of UTF-8 bytes."""
    return json.loads(payload.decode("utf-8"))


@dataclass(frozen=True)
class Template:
    """One template: its inputs, its path and the codec's path.

    ``template`` and ``codec`` map an input to wire bytes (or, for a
    recognizer, payload bytes to a value); ``decoder`` reads the
    template's bytes back, after ``header`` bytes of framing.
    """

    inputs: st.SearchStrategy
    template: Callable
    codec: Callable
    decoder: Callable = decode
    header: int = 0


TEMPLATES = {
    "switch-frame": Template(
        VMPLS, switch_page,
        lambda vmpl: framed(encode(switch_message(vmpl))),
        decode_payload, FRAME_HEADER),
    "ghcb-frame": Template(
        GHCB_MESSAGES, encode_frame,
        lambda message: framed(encode(message)),
        decode_payload, FRAME_HEADER),
    "frame-recognizer": Template(PAYLOADS, decode_payload, json_loads),
    "switch-payloads": Template(SWITCH_PAYLOAD_INPUTS, SWITCH_PAYLOADS.get,
                                switch_target),
    "audit-entry": Template(
        AUDIT_ENTRIES, AuditEntry.serialize,
        lambda entry: encode(audit_record(entry))),
    "request-envelope": Template(
        REQUESTS, lambda request: encode_request(*request),
        lambda request: encode_compact(request_envelope(request))),
    "reply-envelope": Template(
        REPLIES, lambda args: encode_reply(*args),
        lambda args: encode_compact(reply_envelope(args))),
}


def outcome(fn, value):
    """What ``fn(value)`` gives: the type and repr of its result, or
    ``"ValueError"`` if it raised one."""
    try:
        result = fn(value)
    except ValueError:
        return "ValueError"
    return type(result), repr(result)


def check_template(name: str, value) -> None:
    """The template named ``name`` agrees with the codec on ``value``."""
    case = TEMPLATES[name]
    written = outcome(case.template, value)
    assert written == outcome(case.codec, value)
    if written[0] is bytes:
        wire = case.template(value)
        payload = wire[case.header:]
        assert outcome(case.decoder, payload) == \
            outcome(json_loads, payload)
        assert outcome(decode, payload) == outcome(json_loads, payload)
