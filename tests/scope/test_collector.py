"""FleetScope lifecycle: request records, retries, hops, faults."""

import json

import pytest

from repro.scope.collector import NULL_SCOPE, FleetScope, NullScope
from repro.scope.context import TRACE_KEY, TraceContext, peek_context


class FakeClock:
    """Mutable stand-in for FleetClock: tests advance ``total``."""

    def __init__(self):
        self.total = 0


@pytest.fixture
def scope():
    scope = FleetScope()
    clock = FakeClock()
    scope.attach_clock(clock)
    scope._test_clock = clock
    return scope


def scope_clock(scope):
    """The FakeClock the ``scope`` fixture attached."""
    return scope._test_clock


def wire(ctx, **extra):
    envelope = {"kind": "request", TRACE_KEY: ctx.as_wire(), **extra}
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class TestRequestLifecycle:
    def test_served_request_record(self, scope):
        clock = scope_clock(scope)
        ctx = TraceContext(trace_id=11)
        clock.total = 100
        scope.request_begin(ctx, "get")
        clock.total = 700
        scope.request_end(ctx, replica="replica1", attempts=1,
                          queue_wait=40, service_cycles=300,
                          breakdown={"net": 200, "compute": 100})
        (record,) = scope.records
        assert record.trace_id == 11
        assert record.klass == "get"
        assert record.status == "ok"
        assert record.arrival == 100
        assert record.end == 700
        assert record.latency == 600
        assert record.replica == "replica1"
        assert record.attempts == 1
        assert record.queue_wait == 40
        assert record.service_cycles == 300
        assert record.breakdown == {"compute": 100, "net": 200}

    def test_retries_are_recorded_in_order(self, scope):
        clock = scope_clock(scope)
        ctx = TraceContext(trace_id=3)
        scope.request_begin(ctx, "set")
        clock.total = 50
        scope.retry(ctx, "replica0", "no reply")
        clock.total = 90
        scope.retry(ctx, "replica1", "tampered record")
        scope.request_end(ctx, replica="replica2", attempts=3,
                          queue_wait=0, service_cycles=10)
        (record,) = scope.records
        assert record.retries == [(50, "replica0", "no reply"),
                                  (90, "replica1", "tampered record")]
        assert scope.metrics.counters["retries/set"] == 2

    def test_failed_request_record(self, scope):
        ctx = TraceContext(trace_id=5)
        scope.request_begin(ctx, "get")
        scope.request_failed(ctx, "all replicas exhausted")
        (record,) = scope.records
        assert record.status == "failed"
        assert record.reason == "all replicas exhausted"
        assert scope.metrics.counters["requests_failed/get"] == 1

    def test_completed_excludes_in_flight_requests(self, scope):
        ok, failed, open_ = (TraceContext(1), TraceContext(2),
                             TraceContext(3))
        for ctx, klass in ((ok, "get"), (failed, "get"), (open_, "set")):
            scope.request_begin(ctx, klass)
        scope.request_end(ok, replica="r", attempts=1, queue_wait=0,
                          service_cycles=1)
        scope.request_failed(failed, "boom")
        done = scope.completed()
        assert [r.trace_id for r in done] == [1, 2]
        assert [r.status for r in done] == ["ok", "failed"]

    def test_latency_feeds_exact_percentiles(self, scope):
        clock = scope_clock(scope)
        for i, latency in enumerate([100, 200, 300, 400]):
            ctx = TraceContext(trace_id=i)
            start = clock.total
            scope.request_begin(ctx, "get")
            clock.total = start + latency
            scope.request_end(ctx, replica="r", attempts=1,
                              queue_wait=0, service_cycles=latency)
        pct = scope.percentiles("get")
        assert pct["p50"] == 200
        assert pct["p99"] == 400

    def test_as_dict_is_json_serializable(self, scope):
        ctx = TraceContext(trace_id=1)
        scope.request_begin(ctx, "get")
        scope.retry(ctx, "r0", "drop")
        scope.request_end(ctx, replica="r1", attempts=2, queue_wait=5,
                          service_cycles=9, breakdown={"net": 9})
        payload = json.dumps(scope.records[0].as_dict(), sort_keys=True)
        assert json.loads(payload)["status"] == "ok"


class TestHopsAndFaults:
    def test_on_message_records_hop_with_context(self, scope):
        clock = scope_clock(scope)
        clock.total = 42
        ctx = TraceContext(trace_id=8).child(1)
        scope.on_message("frontend", "replica0", wire(ctx))
        (hop,) = scope.hops
        assert (hop.ts, hop.src, hop.dst) == (42, "frontend", "replica0")
        assert (hop.trace_id, hop.span_id) == (8, 1)
        assert hop.nbytes == len(wire(ctx))

    def test_contextless_frame_still_counts_as_hop(self, scope):
        scope.on_message("frontend", "replica0",
                         b'{"kind": "attest"}')
        (hop,) = scope.hops
        assert hop.trace_id is None
        assert scope.metrics.counters["hops/frontend->replica0"] == 1

    def test_hops_are_peeked_when_read(self, scope, monkeypatch):
        """Delivery keeps the bytes; reading ``hops`` parses each message
        once, and later deliveries append in order."""
        from repro.scope import collector
        peeked = []

        def counting_peek(payload):
            peeked.append(payload)
            return peek_context(payload)
        monkeypatch.setattr(collector, "peek_context", counting_peek)
        clock = scope_clock(scope)
        for ts, trace_id in ((1, 4), (2, 5)):
            clock.total = ts
            scope.on_message("frontend", "replica0",
                             wire(TraceContext(trace_id=trace_id)))
        assert peeked == []
        assert scope.metrics.counters["hops/frontend->replica0"] == 2
        assert [(h.ts, h.trace_id) for h in scope.hops] == [(1, 4), (2, 5)]
        assert [(h.ts, h.trace_id) for h in scope.hops] == [(1, 4), (2, 5)]
        assert len(peeked) == 2
        clock.total = 3
        scope.on_message("replica0", "frontend", b"garbage")
        assert [(h.ts, h.trace_id) for h in scope.hops] == [
            (1, 4), (2, 5), (3, None)]
        assert len(peeked) == 3

    def test_on_fault_records_timeline_event(self, scope):
        clock = scope_clock(scope)
        clock.total = 9
        scope.on_fault("drop", "frontend->replica1", detail="fate")
        (fault,) = scope.faults
        assert (fault.ts, fault.kind, fault.subject) == (
            9, "drop", "frontend->replica1")
        assert scope.metrics.counters["faults/drop"] == 1


class TestNullScope:
    def test_null_scope_is_disabled_and_inert(self):
        assert NULL_SCOPE.enabled is False
        assert isinstance(NULL_SCOPE, NullScope)
        ctx = TraceContext(trace_id=1)
        NULL_SCOPE.request_begin(ctx, "get")
        NULL_SCOPE.retry(ctx, "r", "x")
        NULL_SCOPE.request_end(ctx, replica="r", attempts=1,
                               queue_wait=0, service_cycles=0)
        NULL_SCOPE.request_failed(ctx, "x")
        NULL_SCOPE.on_message("a", "b", b"{}")
        NULL_SCOPE.on_fault("drop", "a->b")
        assert NULL_SCOPE.records == ()
        assert NULL_SCOPE.hops == ()
        assert NULL_SCOPE.faults == ()
        assert NULL_SCOPE.completed() == []
        assert NULL_SCOPE.percentiles("get") is None

    def test_fleet_scope_is_enabled(self):
        assert FleetScope().enabled is True
