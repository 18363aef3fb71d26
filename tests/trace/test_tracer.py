"""Unit tests for the veil-trace core: Tracer, spans, metrics."""

import pytest

from repro.trace import (DEFAULT_CAPACITY, NULL_TRACER, CycleHistogram,
                         MetricsRegistry, NullTracer, Tracer)


class FakeLedger:
    def __init__(self):
        self.total = 0


class TestSpans:
    def test_span_records_begin_end_and_attribution(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        ledger.total = 100
        with tracer.span("hw", "VMGEXIT", vcpu=1, vmpl=3, pid=7,
                         args={"op": "io"}):
            ledger.total = 350
        (event,) = tracer.events
        assert event.phase == "X"
        assert (event.category, event.name) == ("hw", "VMGEXIT")
        assert (event.ts, event.dur, event.end) == (100, 250, 350)
        assert (event.vcpu, event.vmpl, event.pid) == (1, 3, 7)
        assert event.args_dict() == {"op": "io"}

    def test_nested_spans_close_inner_first(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        with tracer.span("a", "outer"):
            ledger.total = 10
            with tracer.span("b", "inner"):
                ledger.total = 20
            ledger.total = 30
        inner, outer = tracer.events
        assert (inner.name, inner.ts, inner.dur) == ("inner", 10, 10)
        assert (outer.name, outer.ts, outer.dur) == ("outer", 0, 30)

    def test_span_survives_exceptions_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("k", "boom"):
                raise ValueError("inside")
        assert len(tracer.events) == 1

    def test_negative_duration_clamped_to_zero(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        ledger.total = 500
        span = tracer.span("x", "time-warp")
        span.__enter__()
        fresh = FakeLedger()             # tracer re-attached mid-span
        tracer.attach_ledger(fresh)
        span.__exit__(None, None, None)
        (event,) = tracer.events
        assert event.dur == 0

    def test_instant_event(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        ledger.total = 42
        tracer.instant("hw", "NPF", vcpu=0, args={"ppn": 9})
        (event,) = tracer.events
        assert event.phase == "i"
        assert event.ts == 42 and event.dur == 0
        assert event.args_dict() == {"ppn": 9}

    def test_spans_and_instants_filters(self):
        tracer = Tracer()
        with tracer.span("hw", "A"):
            pass
        with tracer.span("hw", "B"):
            pass
        tracer.instant("hv", "A")
        assert len(list(tracer.spans("hw"))) == 2
        assert len(list(tracer.spans("hw", "A"))) == 1
        assert len(list(tracer.instants("hv"))) == 1
        assert list(tracer.spans("nope")) == []


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant("c", f"e{i}")
        assert len(tracer.events) == 4
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events] == \
            ["e6", "e7", "e8", "e9"]

    def test_default_capacity(self):
        assert Tracer().events.maxlen == DEFAULT_CAPACITY

    def test_clear_resets_events_counters_and_metrics(self):
        tracer = Tracer()
        tracer.instant("c", "x")
        tracer.clear()
        assert len(tracer.events) == 0
        assert tracer.recorded == 0
        assert tracer.metrics.dump() == {"counters": {},
                                         "histograms": {},
                                         "latency": {}}


class TestMetrics:
    def test_span_feeds_counter_and_histogram(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        for cycles in (100, 300):
            start = ledger.total
            with tracer.span("syscall", "open"):
                ledger.total = start + cycles
        hist = tracer.metrics.histogram("cycles", "syscall:open")
        assert hist.count == 2
        assert hist.total == 400
        assert (hist.min, hist.max) == (100, 300)
        assert hist.mean == 200.0
        assert tracer.metrics.counter("span", "syscall:open") == 2

    def test_instant_feeds_counter_only(self):
        tracer = Tracer()
        tracer.instant("audit", "append:open")
        assert tracer.metrics.counter("event", "audit:append:open") == 1
        assert tracer.metrics.histograms == {}

    def test_histogram_buckets_are_power_of_two(self):
        hist = CycleHistogram()
        for value in (1, 2, 3, 4, 1000):
            hist.observe(value)
        data = hist.as_dict()
        assert data["count"] == 5
        assert sum(data["buckets"].values()) == 5

    def test_registry_dump_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.count("b", "z")
            registry.count("a", "y", n=3)
            registry.observe("cycles", "k", 7)
            return registry.dump()
        assert build() == build()

    def test_counters_named_strips_prefix(self):
        registry = MetricsRegistry()
        registry.count("syscall", "open", n=2)
        registry.count("syscall", "close")
        registry.count("other", "open")
        assert registry.counters_named("syscall") == \
            {"open": 2, "close": 1}


class TestNullTracer:
    def test_disabled_and_recordless(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("hw", "VMGEXIT", vcpu=0, vmpl=1):
            tracer.instant("hw", "NPF")
        assert list(tracer.events) == []
        assert tracer.recorded == 0
        tracer.metrics.count("syscall", "open")
        assert tracer.metrics.dump() == {"counters": {},
                                         "histograms": {},
                                         "latency": {}}

    def test_singleton_attach_ledger_is_noop(self):
        NULL_TRACER.attach_ledger(FakeLedger())
        assert NULL_TRACER.now() == 0


class TestArgCoercion:
    """Span args are coerced at record time, not at export time.

    Regression: a span recorded with a non-JSON-serializable arg (bytes,
    an exception object, a tuple-keyed mapping...) used to survive until
    ``chrome_trace`` serialization and blow up there -- far from the
    call site that recorded it.  Coercion now happens in ``_freeze_args``
    when the event is recorded.
    """

    def test_non_serializable_arg_is_coerced_at_record_time(self):
        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        tracer = Tracer()
        tracer.instant("hw", "weird", args={"obj": Opaque()})
        (event,) = tracer.events
        assert event.args_dict() == {"obj": "<opaque thing>"}

    def test_recorded_args_always_export_as_json(self):
        import json
        from repro.trace import dumps_chrome_trace

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        tracer = Tracer()
        with tracer.span("hw", "mixed", args={
                "obj": Opaque(),
                "blob": b"\x00\xff",
                "pair": (1, "two"),
                "nested": {"inner": bytearray(b"\x01")},
                "num": 7, "flag": True, "none": None}):
            pass
        json.loads(dumps_chrome_trace(tracer))

    def test_bytes_become_hex(self):
        tracer = Tracer()
        tracer.instant("hw", "sealed", args={"record": b"\xde\xad"})
        (event,) = tracer.events
        assert event.args_dict() == {"record": "dead"}

    def test_containers_coerce_recursively(self):
        tracer = Tracer()
        tracer.instant("hw", "deep", args={
            "mix": [b"\x01", (2, None), {"k": b"\x02"}]})
        (event,) = tracer.events
        assert event.args_dict() == {
            "mix": ["01", [2, None], {"k": "02"}]}

    def test_primitives_pass_through_unchanged(self):
        tracer = Tracer()
        tracer.instant("hw", "plain", args={
            "i": 3, "f": 1.5, "s": "x", "b": False, "n": None})
        (event,) = tracer.events
        assert event.args_dict() == {
            "i": 3, "f": 1.5, "s": "x", "b": False, "n": None}

    def test_coercion_is_deterministic_across_runs(self):
        def run():
            tracer = Tracer()
            tracer.instant("hw", "weird", args={
                "blob": b"\x10\x20", "t": (1, 2), "d": {"z": 1, "a": 2}})
            from repro.trace import dumps_chrome_trace
            return dumps_chrome_trace(tracer)

        assert run() == run()
