"""Trace-context wire format: round-trips, hostile input, peeking."""

import json

import pytest

from repro.scope.context import (TRACE_KEY, TraceContext, attach_context,
                                 extract_context, peek_context)


class TestWireRoundTrip:
    def test_root_context_round_trips(self):
        ctx = TraceContext(trace_id=7)
        assert TraceContext.from_wire(ctx.as_wire()) == ctx

    def test_child_round_trips_with_parent(self):
        child = TraceContext(trace_id=7).child(3)
        again = TraceContext.from_wire(child.as_wire())
        assert again == child
        assert again.parent_id == 0
        assert again.span_id == 3

    def test_child_of_child_chains_parents(self):
        grand = TraceContext(trace_id=1).child(2).child(5)
        assert grand.parent_id == 2
        assert grand.span_id == 5
        assert grand.trace_id == 1

    def test_wire_form_is_json_serializable(self):
        wire = TraceContext(trace_id=9, span_id=1, parent_id=0).as_wire()
        assert json.loads(json.dumps(wire)) == wire

    def test_contexts_are_immutable(self):
        ctx = TraceContext(trace_id=1)
        with pytest.raises(Exception):
            ctx.trace_id = 2


class TestFromWireRejectsGarbage:
    @pytest.mark.parametrize("bad", [
        None, 42, "trace", [], {},                      # wrong shapes
        {"trace_id": "7"},                              # stringly id
        {"trace_id": 7, "span_id": "0"},                # stringly span
        {"trace_id": True},                             # bool is not an id
        {"trace_id": 7, "span_id": False},
        {"trace_id": 7, "span_id": 0, "parent_id": True},
        {"trace_id": 7.5},                              # float id
    ])
    def test_malformed_wire_yields_none(self, bad):
        assert TraceContext.from_wire(bad) is None

    def test_missing_parent_defaults_to_none(self):
        ctx = TraceContext.from_wire({"trace_id": 3, "span_id": 1})
        assert ctx == TraceContext(trace_id=3, span_id=1, parent_id=None)


class TestAttachExtract:
    def test_attach_sets_the_trace_key(self):
        envelope = {"kind": "request"}
        attach_context(envelope, TraceContext(trace_id=4))
        assert envelope[TRACE_KEY] == {"trace_id": 4, "span_id": 0,
                                       "parent_id": None}

    def test_attach_none_is_a_no_op(self):
        envelope = {"kind": "request"}
        attach_context(envelope, None)
        assert TRACE_KEY not in envelope

    def test_extract_reads_back_what_attach_wrote(self):
        envelope = {"kind": "request"}
        ctx = TraceContext(trace_id=4).child(2)
        attach_context(envelope, ctx)
        assert extract_context(envelope) == ctx

    def test_extract_without_context_is_none(self):
        assert extract_context({"kind": "request"}) is None
        assert extract_context(None) is None


class TestPeek:
    def test_peek_finds_context_in_encoded_wire(self):
        wire = json.dumps({"kind": "request",
                           TRACE_KEY: TraceContext(5).as_wire()},
                          sort_keys=True).encode("utf-8")
        assert peek_context(wire) == TraceContext(5)

    @pytest.mark.parametrize("garbage", [
        b"", b"\xff\xfe garbage", b"not json", b"[1, 2]",
        b'{"kind": "request"}',
        json.dumps({TRACE_KEY: {"trace_id": "x"}}).encode(),
    ])
    def test_peek_never_raises_on_garbage(self, garbage):
        assert peek_context(garbage) is None

    def test_peek_survives_deep_nesting(self):
        # Nested past the codec's MAX_DEPTH.
        assert peek_context(b"[" * 3000 + b"]" * 3000) is None
        assert peek_context(b'{"trace":' * 3000) is None
