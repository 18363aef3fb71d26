"""Per-link channel keys: fresh per replica and per handshake.

The relying party seeds its DH pair from the expected measurement, the
replica name and its running handshake count.  Every replica therefore
holds its own key, a re-attestation rotates it, and a record sealed on
the old link cannot replay into the link that replaced it.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterFleet
from repro.errors import SecurityViolation

NAMES = ("replica0", "replica1", "replica2")


@pytest.fixture(scope="module")
def fleet():
    fleet = ClusterFleet(ClusterConfig(replicas=3, requests=6, keyspace=4))
    fleet.attest_all()
    return fleet


def test_keys_differ_across_replicas(fleet):
    control = {fleet.links[name].control.key for name in NAMES}
    data = {fleet.links[name].data.key for name in NAMES}
    assert len(control) == len(data) == len(NAMES)
    # Both ends of every link agree on its key.
    for name in NAMES:
        monitor = fleet.replicas[name].system.veilmon.user_channel
        assert monitor.key == fleet.links[name].control.key


def test_reattest_rotates_the_key(fleet):
    old = fleet.links["replica1"]
    new = fleet._reattest("replica1")
    assert new.control.key != old.control.key
    assert new.data.key != old.data.key
    replica = fleet.replicas["replica1"]
    assert replica.system.veilmon.user_channel.key == new.control.key
    assert replica.data_channel.key == new.data.key


def test_old_link_record_refused_by_new_link(fleet):
    """A pre-reattest record with counter 0 must not replay into the
    fresh post-reattest channel, whose receive counter also starts at 0."""
    old = fleet.links["replica2"]
    stale = old.data.send({"op": "get", "key": "key0", "request_id": 1})
    new = fleet._reattest("replica2")
    replica = fleet.replicas["replica2"]
    refused = replica._handle_request(stale)
    assert refused["status"] == "error"
    assert refused["reason"].startswith("channel:")
    # The new link itself serves normally.
    fresh = new.data.send({"op": "get", "key": "key0", "request_id": 2})
    reply = replica._handle_request(fresh)
    assert new.data.receive(bytes.fromhex(reply["record_hex"]))


def test_same_config_replays_the_same_keys():
    """Fresh per handshake, yet deterministic across runs."""
    def keys():
        fleet = ClusterFleet(ClusterConfig(replicas=2, requests=2))
        fleet.attest_all()
        return [fleet.links[name].control.key
                for name in ("replica0", "replica1")]
    assert keys() == keys()


def test_verifier_counts_handshakes(fleet):
    before = fleet.verifier.handshakes
    fleet._reattest("replica0")
    assert fleet.verifier.handshakes == before + 1
