"""A malformed ``channel_init`` is refused with an error reply.

The message crosses the untrusted fabric and the untrusted OS, so its
peer public value may be missing, not hex, or outside the DH group.  The
replica must answer ``{"status": "error", ...}`` without a traceback,
install no user channel and provision no data channel.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterFleet
from repro.cluster.net import encode_message, try_decode
from repro.crypto.dh import MODP_2048_P
from repro.hw.cycles import CycleLedger

OUT_OF_RANGE = {
    "zero": "00" * 256,
    "one": "00" * 255 + "01",
    "p_minus_1": (MODP_2048_P - 1).to_bytes(256, "big").hex(),
    "too_wide": "ff" * 300,
}

MALFORMED = [{}, {"peer_public_hex": None}, {"peer_public_hex": 12345},
             {"peer_public_hex": "zz"}, {"peer_public_hex": "abc"}] + [
    {"peer_public_hex": value} for value in OUT_OF_RANGE.values()]


@pytest.fixture
def replica():
    fleet = ClusterFleet(ClusterConfig(replicas=1, requests=2))
    return fleet.replicas["replica0"]


@pytest.mark.parametrize("fields", MALFORMED, ids=[
    "missing", "none", "int", "bad_hex", "odd_hex"] + list(OUT_OF_RANGE))
def test_dispatch_refuses_without_provisioning(replica, fields):
    reply = replica._dispatch(dict(fields, kind="channel_init"))
    assert reply["status"] == "error"
    assert replica.system.veilmon.user_channel is None
    assert replica.data_channel is None


def test_monitor_refuses_out_of_range_value(replica):
    gateway = replica.system.gateway
    for value in OUT_OF_RANGE.values():
        reply = gateway.call_monitor(replica.core, {
            "op": "user_channel_init", "peer_public_hex": value})
        assert reply["status"] == "error"
        assert "peer public value out of range" in reply["reason"]
    assert replica.system.veilmon.user_channel is None


def test_fabric_pump_answers_with_an_error(replica):
    """The whole path: the frame arrives, the pump replies, nothing
    raises."""
    net = replica.net
    net.attach("prober", CycleLedger())
    net.send("prober", replica.name,
             encode_message({"kind": "channel_init"}))
    assert replica.pump() == 1
    _src, wire = net.recv("prober")
    assert try_decode(wire)["status"] == "error"
    assert replica.data_channel is None


def test_bad_init_keeps_the_attested_link():
    """A refused init after admission leaves the live link intact."""
    fleet = ClusterFleet(ClusterConfig(replicas=1, requests=2))
    fleet.attest_all()
    replica = fleet.replicas["replica0"]
    link = fleet.links["replica0"]
    data_channel = replica.data_channel
    reply = replica._dispatch({"kind": "channel_init",
                               "peer_public_hex": "00" * 256})
    assert reply["status"] == "error"
    assert replica.system.veilmon.user_channel.key == link.control.key
    assert replica.data_channel is data_channel
