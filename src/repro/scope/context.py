"""Trace-context propagation over the fleet fabric.

One logical request gets one :class:`TraceContext`: ``trace_id`` is the
front end's idempotent ``request_id`` (unique per run), ``span_id`` 0 is
the root (the logical request), and each delivery attempt is a child
span whose ``span_id`` is the attempt number.  The context travels in
fabric envelopes under the :data:`TRACE_KEY` field — the fleet analog of
a W3C ``traceparent`` header — and replicas echo the inbound context on
their replies, so a merged timeline can link front-end route spans,
fabric hops, and replica serve spans end to end.

The wire form is deliberately boring (three integers in a dict) and is
attached *unconditionally*: envelope bytes are charged by the network
cost model, so the field must cost the same whether or not a collector
is watching.  :func:`peek_context` reads raw fabric bytes with the wire
codec every endpoint uses (:mod:`repro.codec`), so a frame the receiver
would refuse carries no context for the observer either.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import decode
from ..errors import CodecError

#: Envelope field carrying the wire form of a :class:`TraceContext`.
TRACE_KEY = "trace"


@dataclass(frozen=True)
class TraceContext:
    """Causal identity of one request (or one attempt of it)."""

    trace_id: int
    span_id: int = 0
    parent_id: "int | None" = None

    def child(self, span_id: int) -> "TraceContext":
        """A child context (e.g. one delivery attempt of this request)."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            parent_id=self.span_id)

    def as_wire(self) -> dict:
        """The envelope-field form (plain JSON-able dict)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_wire(cls, data) -> "TraceContext | None":
        """Parse an envelope field; ``None`` if malformed.

        The fabric is untrusted — a corrupted bit can land anywhere,
        including inside the trace field — so parsing never raises.
        """
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        parent_id = data.get("parent_id")
        if not isinstance(trace_id, int) or isinstance(trace_id, bool):
            return None
        if not isinstance(span_id, int) or isinstance(span_id, bool):
            return None
        if parent_id is not None and (not isinstance(parent_id, int) or
                                      isinstance(parent_id, bool)):
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   parent_id=parent_id)


def attach_context(envelope: dict, ctx: "TraceContext | None") -> dict:
    """Attach ``ctx`` to a fabric envelope (in place; returns it).

    A ``None`` context leaves the envelope untouched, so control frames
    that predate any request (attestation, channel init) can share call
    sites with request-path frames.
    """
    if ctx is not None:
        envelope[TRACE_KEY] = ctx.as_wire()
    return envelope


def extract_context(message) -> "TraceContext | None":
    """The context carried by a decoded envelope, or ``None``."""
    if not isinstance(message, dict):
        return None
    return TraceContext.from_wire(message.get(TRACE_KEY))


def peek_context(wire: bytes) -> "TraceContext | None":
    """Best-effort context peek at raw fabric bytes.

    The fabric's bytes go through the same :func:`repro.codec.decode`
    the receiving endpoint uses.  Garbage the codec refuses (corrupted
    frames, sealed blobs, deep nesting) and any value that is not an
    object carrying a well-formed context yield ``None``.
    """
    try:
        message = decode(wire)
    except CodecError:
        return None
    return extract_context(message)
