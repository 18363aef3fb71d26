"""Unit tests: the inter-host fabric model."""

import pytest

from repro.cluster import (InterHostNetwork, NetCostModel, encode_message,
                           try_decode)
from repro.cluster.net import encode_reply
from repro.codec import decode
from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger
from repro.scope.context import TraceContext

from tests.wire_templates import NON_INT_IDS, check_template


@pytest.fixture
def net():
    return InterHostNetwork()


def attach_pair(net):
    a, b = CycleLedger(), CycleLedger()
    net.attach("a", a)
    net.attach("b", b)
    return a, b


class TestWireFormat:
    def test_roundtrip(self):
        payload = {"kind": "request", "record_hex": "00ff", "n": 3}
        assert decode(encode_message(payload)) == payload

    def test_encoding_is_canonical(self):
        assert encode_message({"b": 1, "a": 2}) == \
            encode_message({"a": 2, "b": 1})


class TestDelivery:
    def test_fifo_per_destination(self, net):
        attach_pair(net)
        net.send("a", "b", b"first")
        net.send("a", "b", b"second")
        assert net.recv("b") == ("a", b"first")
        assert net.recv("b") == ("a", b"second")

    def test_pending_counts_inbox(self, net):
        attach_pair(net)
        assert net.pending("b") == 0
        net.send("a", "b", b"x")
        assert net.pending("b") == 1
        net.recv("b")
        assert net.pending("b") == 0

    def test_recv_empty_inbox_raises(self, net):
        attach_pair(net)
        with pytest.raises(SimulationError):
            net.recv("b")

    def test_unknown_endpoint_raises(self, net):
        attach_pair(net)
        with pytest.raises(SimulationError):
            net.send("a", "ghost", b"x")

    def test_duplicate_attach_raises(self, net):
        net.attach("a", CycleLedger())
        with pytest.raises(SimulationError):
            net.attach("a", CycleLedger())


class TestTryDecode:
    """The forgiving decoder chaos-exposed receive paths rely on."""

    def test_valid_message_roundtrips(self):
        payload = {"kind": "request", "n": 1}
        assert try_decode(encode_message(payload)) == payload

    def test_garbage_bytes_return_none(self):
        assert try_decode(b"\xff\xfe not json at all") is None

    def test_non_dict_json_returns_none(self):
        assert try_decode(b"[1, 2, 3]") is None
        assert try_decode(b'"just a string"') is None

    def test_truncated_message_returns_none(self):
        wire = encode_message({"kind": "request"})
        assert try_decode(wire[:len(wire) // 2]) is None

    def test_deep_nesting_returns_none(self):
        # Fabric garbage nested past the codec's MAX_DEPTH.
        assert try_decode(b"[" * 3000 + b"]" * 3000) is None
        assert try_decode(b'{"a":' * 3000 + b"1" + b"}" * 3000) is None


class TestEnvelopeTemplates:
    """The pinned request-path envelope cases of the template property:
    each envelope equals :func:`encode_message` byte for byte, whatever
    the ids are."""

    def test_request_envelope(self):
        for request_id in (0, 7, -3, 2 ** 70):
            for sealed in (b"", b"\x00\xff" * 40):
                for ctx in (TraceContext(1), TraceContext(9, 2, 0)):
                    check_template("request-envelope",
                                   (request_id, sealed, ctx))

    def test_reply_envelope(self):
        for reply in ({"status": "ok", "record_hex": "00ff"},
                      {"status": "ok", "record_hex": ""},
                      {"status": "ok", "record_hex": "é"},
                      {"status": "error", "record_hex": "00"},
                      {"status": "error", "reason": "x"},
                      {"status": "ok", "record_hex": "00", "extra": 1}):
            for request_id in (0, 7, None, "7"):
                for ctx in (None, TraceContext(1), TraceContext(9, 2, 0)):
                    check_template("reply-envelope",
                                   (reply, request_id, ctx))

    @pytest.mark.parametrize("request_id, ctx", NON_INT_IDS.values(),
                             ids=NON_INT_IDS.keys())
    def test_non_int_ids_take_the_encoder(self, request_id, ctx):
        check_template("request-envelope", (request_id, b"\x01", ctx))
        check_template("reply-envelope", (
            {"status": "ok", "record_hex": "01"}, request_id, ctx))

    def test_reply_leaves_the_reply_dict_alone(self):
        reply = {"status": "error", "reason": "x"}
        encode_reply(reply, "7", TraceContext(1, 2, 0))
        assert reply == {"status": "error", "reason": "x"}


class TestCostAccounting:
    def test_both_endpoints_charged(self, net):
        a, b = attach_pair(net)
        net.send("a", "b", b"x" * 1000)
        expected = net.cost.message_cost(1000)
        assert a.total == expected
        assert b.total == expected
        assert a.category("net") == expected

    def test_cost_scales_with_bytes(self):
        cost = NetCostModel(latency_cycles=100, per_byte_x1000=2000)
        assert cost.message_cost(0) == 100
        assert cost.message_cost(500) == 100 + 1000

    def test_zero_length_payload_costs_latency_only(self):
        """An empty message still pays the fixed wire latency under
        the default model -- the per-byte term contributes nothing."""
        cost = NetCostModel()
        assert cost.message_cost(0) == cost.latency_cycles
        assert cost.message_cost(0) > 0

    def test_traffic_counters(self, net):
        attach_pair(net)
        net.send("a", "b", b"12345")
        net.send("b", "a", b"123")
        assert net.messages == 2
        assert net.bytes_moved == 8
