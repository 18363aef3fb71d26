"""The fleet-wide observer: request records, hops, faults, latencies.

A :class:`FleetScope` is attached to a fleet run (``ClusterFleet`` wires
it into the front end and the fabric) and collects three streams, all
timestamped on the fleet's virtual clock:

* **Request records** — one :class:`RequestRecord` per logical request:
  arrival, completion, queue wait at route time, retries (with reasons),
  the serving replica, the measured service cycles, and the per-layer
  cycle breakdown of the successful attempt.  Each completed record
  feeds the registry's HDR-style latency histograms
  (``latency/<class>``, ``queue_wait/<class>``, ``service/<class>``) so
  exact p50/p95/p99 per workload class fall out of
  :meth:`FleetScope.metrics`.
* **Fabric hops** — one :class:`HopEvent` per message the fabric
  delivered, with the trace context peeked from the wire, so the merged
  timeline shows every fabric crossing of a request.  The collector
  keeps each message's bytes and peeks the contexts when :attr:`hops`
  is read, so a run whose hops nobody reads never parses them.
* **Fault events** — one :class:`FaultEvent` per injected misbehavior
  (drop / corrupt / delay / dup from the chaotic fabric, plus anything
  a runner reports), inline on the same timeline.

The collector only *observes*: it charges nothing to any ledger and is
never consulted by the request path.  :class:`NullScope` is the
zero-cost disabled twin (the repo-wide null-object pattern — see
:data:`~repro.trace.NULL_TRACER`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..trace.metrics import NULL_METRICS, MetricsRegistry
from .context import peek_context

if typing.TYPE_CHECKING:
    from .context import TraceContext


@dataclass
class RequestRecord:
    """Request-scoped telemetry for one logical request."""

    trace_id: int
    klass: str                 # workload class ("get", "set", "insert")
    arrival: int               # fleet-clock cycles at request_begin
    end: int = 0               # fleet-clock cycles at completion
    status: str = "open"       # "open" | "ok" | "failed"
    replica: str = ""          # who served it (empty until completion)
    attempts: int = 0          # delivery attempts (1 = no retry)
    queue_wait: int = 0        # outstanding cycles on the routed replica
    service_cycles: int = 0    # replica-side cycles of the winning attempt
    #: (fleet-clock ts, replica, reason) per failed attempt.
    retries: list = field(default_factory=list)
    #: Ledger-category -> cycles delta of the winning attempt.
    breakdown: dict = field(default_factory=dict)
    reason: str = ""           # failure reason when status == "failed"

    @property
    def latency(self) -> int:
        """End-to-end fleet-clock cycles (0 while still open)."""
        return max(0, self.end - self.arrival)

    def as_dict(self) -> dict:
        """Deterministic plain-data form for snapshots."""
        return {
            "trace_id": self.trace_id,
            "class": self.klass,
            "arrival": self.arrival,
            "end": self.end,
            "latency": self.latency,
            "status": self.status,
            "replica": self.replica,
            "attempts": self.attempts,
            "queue_wait": self.queue_wait,
            "service_cycles": self.service_cycles,
            "retries": [list(entry) for entry in self.retries],
            "breakdown": dict(sorted(self.breakdown.items())),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class HopEvent:
    """One message crossing the fabric."""

    ts: int                    # fleet-clock cycles at delivery
    src: str
    dst: str
    nbytes: int
    trace_id: "int | None"     # peeked from the wire, if carried
    span_id: "int | None"


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or detected) fleet misbehavior."""

    ts: int                    # fleet-clock cycles when it struck
    kind: str                  # "drop", "corrupt", "delay", "dup", ...
    subject: str               # link ("a->b") or replica name
    detail: str = ""


class FleetScope:
    """Collects fleet-wide request telemetry on the virtual clock."""

    enabled = True

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.records: list[RequestRecord] = []
        self._hops: list[HopEvent] = []
        #: (ts, src, dst, payload) per delivery not yet in ``_hops``.
        self._unread: list[tuple[int, str, str, bytes]] = []
        self.faults: list[FaultEvent] = []
        #: trace_id -> in-flight record (insertion-ordered).
        self._open: dict[int, RequestRecord] = {}
        #: Concurrency gauge: requests begun but not yet ended/failed.
        #: Under the closed-loop driver this never exceeds 1; the surge
        #: harness is what pushes it into the thousands.
        self.in_flight = 0
        self.max_in_flight = 0
        self._clock: typing.Callable[[], int] = lambda: 0

    # -- clock ------------------------------------------------------------

    def attach_clock(self, clock) -> None:
        """Clock this scope off the fleet clock (anything with ``.total``)."""
        self._clock = lambda: clock.total

    def now(self) -> int:
        """Current fleet virtual time (cycles)."""
        return self._clock()

    # -- request lifecycle (front-end hooks) ------------------------------

    def request_begin(self, ctx: "TraceContext", klass: str) -> None:
        """A logical request entered the front end."""
        self._open[ctx.trace_id] = RequestRecord(
            trace_id=ctx.trace_id, klass=klass, arrival=self.now())
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight

    def retry(self, ctx: "TraceContext", replica: str,
              reason: str) -> None:
        """One delivery attempt failed; the front end will retry."""
        record = self._open.get(ctx.trace_id)
        if record is None:
            return
        record.retries.append((self.now(), replica, reason))
        self.metrics.count("retries", record.klass)

    def request_end(self, ctx: "TraceContext", *, replica: str,
                    attempts: int, queue_wait: int, service_cycles: int,
                    breakdown: "dict | None" = None) -> None:
        """The request completed; finalize and feed the histograms."""
        record = self._open.pop(ctx.trace_id, None)
        if record is None:
            return
        self.in_flight -= 1
        record.end = self.now()
        record.status = "ok"
        record.replica = replica
        record.attempts = attempts
        record.queue_wait = queue_wait
        record.service_cycles = service_cycles
        if breakdown:
            record.breakdown = dict(breakdown)
            for category in sorted(record.breakdown):
                self.metrics.count("layer_cycles", category,
                                   record.breakdown[category])
        self.records.append(record)
        klass = record.klass
        self.metrics.count("requests", klass)
        self.metrics.count("served_by", replica)
        self.metrics.record_latency("latency", klass, record.latency)
        self.metrics.record_latency("queue_wait", klass, queue_wait)
        self.metrics.record_latency("service", klass, service_cycles)

    def request_failed(self, ctx: "TraceContext", reason: str) -> None:
        """The request exhausted its retry budget."""
        record = self._open.pop(ctx.trace_id, None)
        if record is None:
            return
        self.in_flight -= 1
        record.end = self.now()
        record.status = "failed"
        record.reason = reason
        record.attempts = len(record.retries)
        self.records.append(record)
        self.metrics.count("requests_failed", record.klass)

    # -- fabric + fault hooks ---------------------------------------------

    def on_message(self, src: str, dst: str, payload: bytes) -> None:
        """The fabric delivered one message (called by the network)."""
        self._unread.append((self.now(), src, dst, payload))
        self.metrics.count("hops", f"{src}->{dst}")

    @property
    def hops(self) -> list[HopEvent]:
        """One :class:`HopEvent` per delivered message, in order."""
        if self._unread:
            for ts, src, dst, payload in self._unread:
                ctx = peek_context(payload)
                self._hops.append(HopEvent(
                    ts=ts, src=src, dst=dst, nbytes=len(payload),
                    trace_id=ctx.trace_id if ctx else None,
                    span_id=ctx.span_id if ctx else None))
            self._unread.clear()
        return self._hops

    def on_fault(self, kind: str, subject: str, detail: str = "") -> None:
        """An injected fault struck (called by the chaotic fabric)."""
        self.faults.append(FaultEvent(
            ts=self.now(), kind=kind, subject=subject, detail=detail))
        self.metrics.count("faults", kind)

    # -- queries ----------------------------------------------------------

    def completed(self) -> list[RequestRecord]:
        """Records of requests that finished (ok or failed)."""
        return list(self.records)

    def percentiles(self, klass: str,
                    points=(50, 95, 99)) -> "dict | None":
        """Exact latency percentiles for one workload class, or None."""
        hist = self.metrics.latency("latency", klass)
        if hist is None:
            return None
        return hist.percentiles(points)


class NullScope:
    """Scope disabled: every hook is a no-op (the default observer)."""

    enabled = False
    metrics = NULL_METRICS
    records: tuple = ()
    hops: tuple = ()
    faults: tuple = ()
    in_flight = 0
    max_in_flight = 0

    def attach_clock(self, clock) -> None:
        """No-op (scope disabled)."""

    def now(self) -> int:
        """Always zero (no clock attached)."""
        return 0

    def request_begin(self, ctx, klass) -> None:
        """No-op (scope disabled)."""

    def retry(self, ctx, replica, reason) -> None:
        """No-op (scope disabled)."""

    def request_end(self, ctx, *, replica, attempts, queue_wait,
                    service_cycles, breakdown=None) -> None:
        """No-op (scope disabled)."""

    def request_failed(self, ctx, reason) -> None:
        """No-op (scope disabled)."""

    def on_message(self, src, dst, payload) -> None:
        """No-op (scope disabled)."""

    def on_fault(self, kind, subject, detail="") -> None:
        """No-op (scope disabled)."""

    def completed(self) -> list:
        """Always empty."""
        return []

    def percentiles(self, klass, points=(50, 95, 99)) -> None:
        """Always None."""
        return None


#: Process-wide shared no-op scope (stateless, safe to share).
NULL_SCOPE = NullScope()
