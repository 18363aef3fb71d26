"""Per-link channel keys: fresh per replica and per handshake.

The relying party seeds its DH pair from the expected measurement, the
replica name and its running handshake count.  Every replica therefore
holds its own key, a re-attestation rotates it, and a record sealed on
the old link cannot replay into the link that replaced it.

The monitor's DH value, by contrast, recurs: the verifier raises it
through a fixed-base table once a handshake with it has completed, and
each replica's PSP re-issues its unchanged report.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterFleet
from repro.crypto import RsaKeyPair
from repro.errors import AttestationError, SecurityViolation
from repro.hv.attestation import RemoteUser

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


def built_tables(verifier) -> int:
    """How many monitor values have had their table rows built."""
    return sum("rows" in vars(table)
               for table in verifier.monitor_tables.values())


def test_verifier_builds_a_table_when_a_monitor_value_recurs():
    fleet = ClusterFleet(ClusterConfig(replicas=2, requests=2))
    verifier = fleet.verifier
    fleet._reattest("replica0")
    assert len(verifier.monitor_tables) == 1
    assert built_tables(verifier) == 0
    # Every VeilMon presents the same value, so the second replica's
    # first handshake already raises it through the table.
    fleet._reattest("replica1")
    assert len(verifier.monitor_tables) == 1
    assert built_tables(verifier) == 1
    for name in ("replica0", "replica1"):
        monitor = fleet.replicas[name].system.veilmon.user_channel
        assert monitor.key == fleet.links[name].control.key


def test_rejected_handshakes_add_nothing():
    fleet = ClusterFleet(ClusterConfig(replicas=2, requests=2,
                                       tampered=(0,)))
    verifier = fleet.verifier
    with pytest.raises(AttestationError, match="measurement mismatch"):
        fleet._reattest("replica0")
    assert verifier.monitor_tables == {}
    fleet._reattest("replica1")
    assert built_tables(verifier) == 0
    # A forged report presenting the remembered value is refused before
    # the key is derived, so its table is still not built.
    fleet.replicas["replica1"].machine.hypervisor.corrupt_ghcb_replies = 1
    with pytest.raises(AttestationError, match="signature invalid"):
        fleet._reattest("replica1")
    assert len(verifier.monitor_tables) == 1
    assert built_tables(verifier) == 0


def test_byzantine_flip_of_a_reissued_report_is_refused(monkeypatch):
    """The hypervisor corrupts only the copy it relays, never the report
    the PSP keeps, so the next re-attestation carries the first bytes."""
    fleet = ClusterFleet(ClusterConfig(replicas=1, requests=2))
    seen, signs = [], [0]
    channel_key = RemoteUser.channel_key_from_report
    sign = RsaKeyPair.sign

    def recording(user, report, *args, **kwargs):
        seen.append(report.signature)
        return channel_key(user, report, *args, **kwargs)

    def counting(keypair, message):
        signs[0] += 1
        return sign(keypair, message)

    monkeypatch.setattr(RemoteUser, "channel_key_from_report", recording)
    monkeypatch.setattr(RsaKeyPair, "sign", counting)
    fleet._reattest("replica0")
    assert signs == [1]
    hypervisor = fleet.replicas["replica0"].machine.hypervisor
    hypervisor.corrupt_ghcb_replies = 1
    with pytest.raises(AttestationError, match="signature invalid"):
        fleet._reattest("replica0")
    assert hypervisor.ghcb_replies_corrupted == 1
    link = fleet._reattest("replica0")
    assert signs == [1]
    assert seen[1] != seen[0]
    assert seen[2] == seen[0]
    monitor = fleet.replicas["replica0"].system.veilmon.user_channel
    assert monitor.key == link.control.key
