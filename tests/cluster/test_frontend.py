"""Unit tests: routing policies and front-end scheduling."""

import pytest

from repro.cluster import (ClusterConfig, ClusterFleet, ConsistentHash,
                           LeastOutstanding, RoundRobin, make_policy,
                           request_payload)
from repro.errors import SimulationError

CANDIDATES = ["replica0", "replica1", "replica2"]


class TestPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobin()
        picks = [policy.choose({}, CANDIDATES, {}) for _ in range(6)]
        assert picks == CANDIDATES + CANDIDATES

    def test_least_outstanding_picks_idlest(self):
        policy = LeastOutstanding()
        outstanding = {"replica0": 500, "replica1": 0, "replica2": 200}
        assert policy.choose({}, CANDIDATES, outstanding) == "replica1"

    def test_least_outstanding_tie_breaks_by_name(self):
        policy = LeastOutstanding()
        assert policy.choose({}, CANDIDATES, {}) == "replica0"

    def test_consistent_hash_key_affinity(self):
        policy = ConsistentHash()
        first = policy.choose({"key": "user42"}, CANDIDATES, {})
        for _ in range(5):
            assert policy.choose({"key": "user42"}, CANDIDATES, {}) == \
                first

    def test_consistent_hash_spreads_keyspace(self):
        policy = ConsistentHash()
        picks = {policy.choose({"key": f"key{i}"}, CANDIDATES, {})
                 for i in range(64)}
        assert len(picks) >= 2

    def test_consistent_hash_survives_membership_change(self):
        """Keys mapping to surviving replicas keep their affinity."""
        policy = ConsistentHash()
        before = {f"key{i}": policy.choose({"key": f"key{i}"},
                                           CANDIDATES, {})
                  for i in range(32)}
        shrunk = CANDIDATES[:2]
        moved = 0
        for key, owner in before.items():
            now = policy.choose({"key": key}, shrunk, {})
            if owner in shrunk and now != owner:
                moved += 1
        assert moved == 0

    def test_consistent_hash_bisect_matches_linear_scan(self):
        """The ring lookup is a binary search now; pin its choice to
        the linear-scan reference for a whole key corpus so the
        speedup can never silently re-home keys."""
        from repro.crypto import sha256
        policy = ConsistentHash()
        policy._rebuild(CANDIDATES)

        def reference(key):
            point = sha256(key.encode())
            for position, name in policy._ring:    # the old linear scan
                if position >= point:
                    return name
            return policy._ring[0][1]

        for i in range(200):
            key = f"user{i}"
            assert policy.choose({"key": key}, CANDIDATES, {}) == \
                reference(key), key

    def test_make_policy_registry(self):
        assert isinstance(make_policy("round-robin"), RoundRobin)
        with pytest.raises(SimulationError):
            make_policy("coin-flip")


class TestFrontEndScheduling:
    def make_fleet(self, policy):
        fleet = ClusterFleet(ClusterConfig(replicas=2, policy=policy))
        fleet.attest_all()
        return fleet

    @staticmethod
    def serve(fleet, requests):
        for index in range(requests):
            fleet.frontend.request(request_payload("memcached", index))

    def test_round_robin_splits_evenly(self):
        fleet = self.make_fleet("round-robin")
        self.serve(fleet, 10)
        assert fleet.frontend.routed == {"replica0": 5, "replica1": 5}

    def test_least_outstanding_uses_both(self):
        fleet = self.make_fleet("least-outstanding")
        self.serve(fleet, 10)
        assert all(n > 0 for n in fleet.frontend.routed.values())

    def test_outstanding_horizon_advances(self):
        fleet = self.make_fleet("least-outstanding")
        frontend = fleet.frontend
        self.serve(fleet, 4)
        assert frontend.makespan_cycles() > 0
        assert frontend.throughput_rps() > 0

    def test_consistent_hash_same_key_same_replica(self):
        fleet = self.make_fleet("consistent-hash")
        for _ in range(6):
            fleet.frontend.request({"op": "get", "key": "sticky"})
        assert sorted(fleet.frontend.routed.values()) in \
            ([0, 6], [6])
