"""Inter-host network model for the Veil fleet.

Where :mod:`repro.kernel.net` models the loopback *inside* one CVM, this
module models the untrusted datacenter fabric *between* machines: the
front end, every replica CVM, and the auditor are endpoints exchanging
opaque byte messages.  The fabric is untrusted in exactly the same sense
as the paper's host network -- it delivers, delays, observes, and (in
attack tests) tampers with traffic; confidentiality and integrity come
only from the attested :class:`~repro.crypto.channel.SecureChannel`
records layered on top.

Costs are cycle-calibrated and charged to *both* endpoints' ledgers, the
way real NIC + stack work lands on both hosts: a fixed per-message
latency (interrupt, driver, protocol processing) plus a per-byte
bandwidth term.  Delivery is synchronous FIFO per (src, dst) ordering --
the fleet's workloads are closed-loop, matching the intra-CVM stack.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import dataclass

from ..codec import decode, encode_compact
from ..errors import CodecError, SimulationError
from ..scope.collector import NULL_SCOPE
from ..trace.tracer import NULL_TRACER

if typing.TYPE_CHECKING:
    from ..hw.cycles import CycleLedger
    from ..scope.context import TraceContext


def encode_message(payload: dict) -> bytes:
    """Serialize a fleet control/data message deterministically.

    The fabric's one encoding entry point, over
    :func:`repro.codec.encode_compact`: veil-lint's ``trace-context``
    rule and veil-flow's fabric sink match calls by this name.
    """
    return encode_compact(payload)


def try_decode(wire: bytes) -> dict | None:
    """Decode a fabric message, or ``None`` if it is not well-formed.

    The fabric is untrusted: under fault injection (or a real bit-flip)
    a message may arrive as arbitrary bytes.  Anything the codec
    refuses (bad UTF-8, bad JSON, deep nesting) or that is not a JSON
    object yields ``None``, so a receive path survives garbage rather
    than crashing the simulation.
    """
    try:
        message = decode(wire)
    except CodecError:
        return None
    return message if isinstance(message, dict) else None


# -- the two sealed-record envelopes of the request path -------------------
#
# Every request crosses the fabric as a front-end envelope and comes back
# as a replica's ``ok`` envelope.  Both are written from templates: the
# bytes :func:`encode_message` gives (sorted keys, compact separators)
# whenever every id is an exact ``int`` (a ``bool`` would print as
# ``true``) and the record is ASCII-alphanumeric hex.  Anything else goes
# through :func:`encode_message`.

_TRACE_FIELD = b',"trace":{"parent_id":%s,"span_id":%d,"trace_id":%d}'
_REQUEST_FORM = b'{"kind":"request","record_hex":"%s","request_id":%d%s}'
_REPLY_FORM = b'{"record_hex":"%s","request_id":%d,"status":"ok"%s}'


def _trace_field(ctx: "TraceContext") -> "bytes | None":
    """The ``,"trace":{...}`` bytes of ``ctx``, or None if an id is not
    an exact int."""
    trace_id, span_id, parent_id = ctx.trace_id, ctx.span_id, ctx.parent_id
    if type(trace_id) is not int or type(span_id) is not int:
        return None
    if parent_id is None:
        return _TRACE_FIELD % (b"null", span_id, trace_id)
    if type(parent_id) is not int:
        return None
    return _TRACE_FIELD % (b"%d" % parent_id, span_id, trace_id)


def encode_request(request_id: int, sealed: bytes,
                   ctx: "TraceContext") -> bytes:
    """The front end's envelope for one sealed request record."""
    field = _trace_field(ctx)
    if type(request_id) is int and field is not None:
        return _REQUEST_FORM % (sealed.hex().encode(), request_id, field)
    return encode_message({"kind": "request", "request_id": request_id,
                           "record_hex": sealed.hex(),
                           "trace": ctx.as_wire()})


def encode_reply(reply: dict, request_id,
                 ctx: "TraceContext | None") -> bytes:
    """A replica's reply envelope: ``reply`` plus the echoed request id
    and, when the request carried one, its trace context.

    ``request_id`` comes off the wire unchecked, so it may be any JSON
    value; only an ``int`` takes the template.
    """
    field = b"" if ctx is None else _trace_field(ctx)
    record_hex = reply.get("record_hex")
    if (len(reply) == 2 and reply.get("status") == "ok" and
            type(request_id) is int and field is not None and
            type(record_hex) is str and record_hex.isascii()):
        record = record_hex.encode()
        if record.isalnum():
            return _REPLY_FORM % (record, request_id, field)
    envelope = dict(reply, request_id=request_id)
    if ctx is not None:
        envelope["trace"] = ctx.as_wire()
    return encode_message(envelope)


@dataclass(frozen=True)
class NetCostModel:
    """Cycle costs of one inter-host message at the 3 GHz nominal clock.

    Defaults model an intra-datacenter link: ~5 us one-way software +
    fabric latency (15k cycles) and a ~25 GB/s effective NIC bandwidth
    (0.12 cycles/byte).  Tests may zero them when timing is irrelevant.
    """

    latency_cycles: int = 15_000
    per_byte_x1000: int = 120

    def message_cost(self, nbytes: int) -> int:
        """Cycles one endpoint pays to move ``nbytes`` over the fabric."""
        return self.latency_cycles + (nbytes * self.per_byte_x1000) // 1000


class HostEndpoint:
    """One attachment point on the fabric (a machine or the front end)."""

    def __init__(self, name: str, ledger: "CycleLedger"):
        self.name = name
        self.ledger = ledger
        #: FIFO of (src_name, payload) awaiting :meth:`InterHostNetwork.recv`.
        self.inbox: deque[tuple[str, bytes]] = deque()


class InterHostNetwork:
    """The untrusted fabric connecting fleet endpoints.

    Per-link message and byte counts land in the tracer's metrics
    registry (``net_msgs/<src>-><dst>``, ``net_bytes/<src>-><dst>``) so
    exported traces break fleet traffic down by link.
    """

    def __init__(self, cost: NetCostModel | None = None, tracer=None):
        self.cost = cost or NetCostModel()
        self.tracer = tracer or NULL_TRACER
        #: Fleet-wide observer (veil-scope); swapped in by the fleet
        #: when a run is scoped.  Observation only -- it never charges.
        self.scope = NULL_SCOPE
        self._endpoints: dict[str, HostEndpoint] = {}
        self.messages = 0
        self.bytes_moved = 0

    def attach(self, name: str, ledger: "CycleLedger") -> HostEndpoint:
        """Register an endpoint; its ledger pays this host's network costs."""
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already attached")
        endpoint = HostEndpoint(name, ledger)
        self._endpoints[name] = endpoint
        return endpoint

    def rebind(self, name: str, ledger: "CycleLedger") -> None:
        """Point an attached endpoint at a rebuilt host ledger.

        A cold reboot (:meth:`ClusterReplica.reboot`) replaces the whole
        machine behind a fabric slot; the endpoint survives but must
        charge the *new* host's ledger.  The inbox clears with it -- a
        rebooted machine does not replay its dead NIC's queue.
        """
        endpoint = self.endpoint(name)
        endpoint.ledger = ledger
        endpoint.inbox.clear()

    def endpoint(self, name: str) -> HostEndpoint:
        """Look up an attached endpoint."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise SimulationError(
                f"no endpoint {name!r} on the fabric") from None

    def send(self, src: str, dst: str, payload: bytes) -> None:
        """Deliver ``payload`` from ``src`` to ``dst``'s inbox.

        Both endpoints are charged the transfer cost under the ``net``
        ledger category (tx on ``src``, rx on ``dst``).
        """
        source = self.endpoint(src)
        target = self.endpoint(dst)
        cycles = self.cost.message_cost(len(payload))
        source.ledger.charge("net", cycles)
        target.ledger.charge("net", cycles)
        target.inbox.append((src, payload))
        self.messages += 1
        self.bytes_moved += len(payload)
        tracer = self.tracer
        if tracer.enabled:
            link = f"{src}->{dst}"
            tracer.metrics.count("net_msgs", link)
            tracer.metrics.count("net_bytes", link, len(payload))
        if self.scope.enabled:
            self.scope.on_message(src, dst, payload)

    def recv(self, dst: str) -> tuple[str, bytes]:
        """Pop the oldest pending message for ``dst``."""
        endpoint = self.endpoint(dst)
        if not endpoint.inbox:
            raise SimulationError(f"no pending message for {dst!r}")
        return endpoint.inbox.popleft()

    def pending(self, dst: str) -> int:
        """Messages waiting in ``dst``'s inbox."""
        return len(self.endpoint(dst).inbox)
