"""Untrusted bytes get the same verdict at any stack depth.

The less-privileged side writes the GHCB and the IDCBs, and the fabric
delivers whatever it likes.  Each decoder of those bytes must accept or
refuse a frame the same way whoever calls it: an errant hypercall
crashes the CVM the same way every time (paper section 6.2).  Each input
below goes through every decoder twice, once from the test and once 800
Python frames deeper, and both verdicts must match.  The parser's own
recursion limit depends on the caller's stack:
without a depth check before parsing, a frame nested 900 deep is
accepted at the top of the stack and refused deeper down.
"""

import pytest

from repro.cluster.net import try_decode
from repro.codec import decode, encode
from repro.core.idcb import Idcb
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.ghcb import Ghcb
from repro.hw.memory import PAGE_SIZE, PhysicalMemory, page_base
from repro.scope.context import peek_context

#: Frames between the two calls of each decoder.
DEEPER = 800


def deep_list(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def deep_object(depth: int) -> bytes:
    return b'{"a":' * depth + b"1" + b"}" * depth


def envelope(pad: bytes) -> bytes:
    """A frame every decoder accepts, with ``pad`` as one more field."""
    head = encode({"kind": "request", "op": "ping",
                   "trace": {"trace_id": 1, "span_id": 0,
                             "parent_id": None}})
    return head[:-1] + b', "pad": ' + pad + b"}"


INPUTS = {
    "valid": envelope(b"1"),
    "list-900": deep_list(900),
    "list-3000": deep_list(3000),
    "object-900": deep_object(900),
    "object-3000": deep_object(3000),
    "envelope-list-900": envelope(deep_list(900)),
    "envelope-list-3000": envelope(deep_list(3000)),
    "envelope-object-900": envelope(deep_object(900)),
    "envelope-object-3000": envelope(deep_object(3000)),
    "bad-utf8": b'{"op": "\xff\xfe"}',
    "truncated": envelope(b"1")[:40],
    "non-object": b"[1, 2, 3]",
}


def framed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


def ghcb_read(data: bytes):
    mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                         ledger=CycleLedger())
    ghcb = Ghcb(3)
    mem.write(ghcb.gpa, framed(data))
    return ghcb.read_message(mem)


def idcb_read(data: bytes):
    mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                         ledger=CycleLedger())
    idcb = Idcb(list(range(4, 12)), low_vmpl=3, high_vmpl=0)
    mem.write(page_base(4), framed(data))
    return idcb.read_request(mem)


DECODERS = {
    "codec": decode,
    "ghcb": ghcb_read,
    "idcb": idcb_read,
    "fabric": try_decode,
    "scope": peek_context,
}


def verdict(decoder, data: bytes):
    """What ``decoder`` makes of ``data``: a value, or an error's type
    and text.

    Any exception counts, ``RecursionError`` included: a decoder that
    leaks one at depth gives a different verdict there.
    """
    try:
        return "accepted", repr(decoder(data))
    except Exception as refused:   # any refusal is the verdict under test
        return "refused", type(refused).__name__, str(refused)


def at_depth(frames: int, fn):
    """``fn()`` called ``frames`` Python frames deeper than here."""
    if frames == 0:
        return fn()
    return at_depth(frames - 1, fn)


def same_verdict(decoder, data: bytes):
    """The verdict at the top, after checking it ``DEEPER`` frames down."""
    top = verdict(decoder, data)
    deep = at_depth(DEEPER, lambda: verdict(decoder, data))
    assert top == deep
    return top


@pytest.mark.parametrize("shape", sorted(INPUTS))
@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoder_verdict_does_not_depend_on_stack_depth(name, shape):
    same_verdict(DECODERS[name], INPUTS[shape])


def test_only_the_shallow_envelope_decodes():
    accepted = {shape for shape, data in INPUTS.items()
                if same_verdict(decode, data)[0] == "accepted"}
    assert accepted == {"valid", "non-object"}
    assert same_verdict(try_decode, INPUTS["valid"])[0] == "accepted"
    assert same_verdict(peek_context, INPUTS["valid"]) == (
        "accepted", "TraceContext(trace_id=1, span_id=0, parent_id=None)")
