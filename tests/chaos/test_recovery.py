"""Regression tests: the fleet request path recovers from faults.

These pin the veil-chaos bug fixes at the component level: a refused
request no longer poisons the attested channel, retries are idempotent,
crashed replicas are quarantined and re-admitted via re-attestation,
and fabric garbage never crashes an endpoint.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterFleet, encode_message
from repro.errors import SimulationError


def attested_fleet(**overrides):
    defaults = dict(replicas=2, requests=8, policy="round-robin")
    defaults.update(overrides)
    fleet = ClusterFleet(ClusterConfig(**defaults))
    fleet.attest_all()
    return fleet


class TestRefusedRequestIsRetryable:
    def test_lost_sealed_record_does_not_desync_the_link(self):
        """The original desync bug: a sealed record that never reaches
        the replica used to advance the initiator's send counter past
        the responder's strict expectation, permanently poisoning the
        link.  With windowed receivers the next request just works."""
        fleet = attested_fleet()
        link = fleet.frontend.link("replica0")
        link.data.send({"op": "get", "key": "lost"})   # vanishes in flight
        for i in range(4):                             # hits both replicas
            reply = fleet.frontend.request({"op": "get", "key": f"k{i}"})
            assert reply["status"] == "hit" or "value" in reply or reply
        assert fleet.frontend.routed["replica0"] >= 1

    def test_garbage_request_is_refused_then_replica_still_serves(self):
        """A tampered record draws an error envelope (a strike), not a
        poisoned channel: the same replica serves the next request."""
        fleet = attested_fleet()
        net, frontend = fleet.net, fleet.frontend
        net.send(frontend.name, "replica0", encode_message(
            {"kind": "request", "request_id": 999,
             "record_hex": "00" * 48}))
        fleet.replicas["replica0"].pump()
        src, wire = net.recv(frontend.name)
        assert src == "replica0" and b"error" in wire
        assert frontend.health["replica0"].strikes == 0
        for i in range(4):
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
        assert frontend.routed["replica0"] >= 1

    def test_fabric_garbage_is_dropped_not_fatal(self):
        fleet = attested_fleet()
        fleet.net.send(fleet.frontend.name, "replica0", b"\xff\x00!{")
        assert fleet.replicas["replica0"].pump() == 0
        fleet.frontend.request({"op": "get", "key": "k"})


class TestIdempotentRetries:
    def test_reseal_of_same_request_id_not_reexecuted(self):
        fleet = attested_fleet()
        replica = fleet.replicas["replica0"]
        link = fleet.frontend.link("replica0")
        body = {"op": "set", "key": "kx", "request_id": 12345}
        first = replica._handle_request(link.data.send(body))
        served = replica.requests_served
        second = replica._handle_request(link.data.send(body))
        assert replica.requests_served == served     # cache hit
        result_a = link.data.receive(bytes.fromhex(first["record_hex"]))
        result_b = link.data.receive(bytes.fromhex(second["record_hex"]))
        assert result_a == result_b

    def test_cache_is_bounded(self):
        from repro.cluster.replica import IDEMPOTENCY_CACHE_ENTRIES
        fleet = attested_fleet()
        replica = fleet.replicas["replica0"]
        link = fleet.frontend.link("replica0")
        for rid in range(IDEMPOTENCY_CACHE_ENTRIES + 20):
            replica._handle_request(link.data.send(
                {"op": "get", "key": "k", "request_id": rid}))
        assert len(replica._completed) == IDEMPOTENCY_CACHE_ENTRIES


class TestCrashRecovery:
    def test_crash_degrades_then_heals_via_reattestation(self):
        fleet = attested_fleet()
        victim = fleet.replicas["replica1"]
        victim.crash()
        assert not victim.alive and victim.data_channel is None
        for i in range(8):                 # no raise: failover absorbs it
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
        assert fleet.frontend.health["replica1"].quarantined
        assert fleet.frontend.quarantines >= 1
        victim.restart()
        assert fleet.frontend.heal_quarantined() == 1
        assert not fleet.frontend.health["replica1"].quarantined
        assert fleet.frontend.health["replica1"].reattested == 1
        before = fleet.frontend.routed["replica1"]
        for i in range(4):
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
        assert fleet.frontend.routed["replica1"] > before

    def test_heal_fails_while_replica_is_down(self):
        fleet = attested_fleet()
        fleet.replicas["replica1"].crash()
        for i in range(8):
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
        assert fleet.frontend.heal_quarantined() == 0
        assert fleet.frontend.health["replica1"].quarantined

    def test_all_replicas_dead_eventually_raises(self):
        """Liveness has limits: with every replica crashed the bounded
        budget exhausts and the front end reports failure (it must not
        spin forever)."""
        fleet = attested_fleet()
        for replica in fleet.replicas.values():
            replica.crash()
        with pytest.raises(SimulationError):
            fleet.frontend.request({"op": "get", "key": "k"})
