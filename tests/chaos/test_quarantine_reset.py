"""Satellite regression: quarantine drops the replica's scheduling state.

The bug this pins: :meth:`FrontEnd.quarantine` removed a replica from
the routing candidates but left its ``busy_until`` horizon behind.  The
stale horizon survived re-admission (``admit`` only seeds the horizon
with ``setdefault``), so :meth:`FrontEnd.outstanding` kept reporting the
dead epoch's queued cycles and least-outstanding routing shunned the
healed replica until the fleet clock finally overtook the ghost backlog.
"""

from repro.cluster import ClusterConfig, ClusterFleet


def attested_fleet(**overrides):
    defaults = dict(replicas=2, requests=8, policy="least-outstanding")
    defaults.update(overrides)
    fleet = ClusterFleet(ClusterConfig(**defaults))
    fleet.attest_all()
    return fleet


class TestQuarantineDropsSchedulingState:
    def test_quarantine_pops_the_busy_horizon(self):
        fleet = attested_fleet()
        frontend = fleet.frontend
        for i in range(6):
            frontend.request({"op": "get", "key": f"k{i}"})
        assert "replica1" in frontend.busy_until
        frontend.quarantine("replica1", "unit: forced")
        assert "replica1" not in frontend.busy_until
        assert frontend.outstanding("replica1") == 0

    def test_readmission_does_not_resurrect_a_stale_horizon(self):
        """The ghost-backlog scenario: a replica quarantined with a big
        accrued horizon must come back with outstanding() == 0, seeded
        at the virtual now of the heal, not at its pre-death backlog."""
        fleet = attested_fleet()
        frontend = fleet.frontend
        # A backlog far in the future, as a loaded replica would carry.
        frontend.busy_until["replica1"] = frontend.ledger.total + 10**9
        frontend.quarantine("replica1", "unit: loaded then lost")
        fleet.replicas["replica1"].restart()
        assert frontend.heal_quarantined() == 1
        assert frontend.outstanding("replica1") == 0
        assert frontend.busy_until["replica1"] == frontend.ledger.total

    def test_healed_replica_takes_traffic_again_immediately(self):
        """End to end: crash -> quarantine -> heal; least-outstanding
        routing must send the very next request to the healed replica
        (it is idle, its peer carries the failover backlog)."""
        fleet = attested_fleet()
        frontend = fleet.frontend
        fleet.replicas["replica1"].crash()
        for i in range(8):         # failover piles work onto replica0
            frontend.request({"op": "get", "key": f"k{i}"})
        assert frontend.health["replica1"].quarantined
        fleet.replicas["replica1"].restart()
        assert frontend.heal_quarantined() == 1
        assert frontend.outstanding("replica1") == 0
        assert frontend.outstanding("replica0") > 0
        before = frontend.routed["replica1"]
        frontend.request({"op": "get", "key": "post-heal"})
        assert frontend.routed["replica1"] == before + 1
