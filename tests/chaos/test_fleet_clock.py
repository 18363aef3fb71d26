"""Satellite regression: fleet time never steps backwards.

The bug this pins: :class:`FleetClock` summed the live host ledgers on
every read, so a cold reboot -- which rebuilds a replica's
:class:`CycleLedger` from zero -- yanked the merged clock backwards by
everything the dead ledger had accrued.  Every timestamp source hanging
off the clock (the shared tracer, FleetScope records) then went
non-monotone.  The fix is the high-water mark: :meth:`FleetClock.replace`
folds the outgoing sum into the floor before swapping ledgers.
"""

from repro.cluster import ClusterConfig, ClusterFleet
from repro.trace import Tracer, chrome_trace, validate_chrome_trace


class FakeLedger:
    def __init__(self, total=0):
        self.total = total


def attested_fleet(tracer=None, **overrides):
    defaults = dict(replicas=2, requests=8, policy="round-robin")
    defaults.update(overrides)
    fleet = ClusterFleet(ClusterConfig(**defaults), tracer=tracer)
    fleet.attest_all()
    return fleet


class TestFleetClockUnit:
    def test_replace_holds_the_high_water_mark(self):
        from repro.cluster.fleet import FleetClock
        old, peer = FakeLedger(1_000_000), FakeLedger(250)
        clock = FleetClock([old, peer])
        assert clock.total == 1_000_250
        clock.replace(old, FakeLedger(0))     # cold reboot: zero ledger
        assert clock.total == 1_000_250       # no rewind

    def test_new_ledger_advances_from_the_floor(self):
        from repro.cluster.fleet import FleetClock
        old = FakeLedger(500)
        clock = FleetClock([old])
        assert clock.total == 500
        fresh = FakeLedger(0)
        clock.replace(old, fresh)
        fresh.total = 100                     # rebooted host does work
        assert clock.total == 500             # still below the floor
        fresh.total = 700
        assert clock.total == 700             # overtakes, then leads

    def test_replace_without_a_prior_read_still_floors(self):
        """The floor must capture the pre-swap sum even if nobody ever
        read .total before the reboot."""
        from repro.cluster.fleet import FleetClock
        old = FakeLedger(42_000)
        clock = FleetClock([old])
        clock.replace(old, FakeLedger(0))     # first interaction
        assert clock.total == 42_000


class TestRebootKeepsFleetTimeMonotone:
    def _crash_schedule(self, fleet) -> list:
        """Serve, cold-reboot replica1 mid-run, heal, serve again;
        sample the merged clock at every step."""
        samples = [fleet.clock.total]
        for i in range(6):
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
            samples.append(fleet.clock.total)
        fleet.reboot_replica("replica1")
        samples.append(fleet.clock.total)
        for i in range(4):                 # replica1 refuses until healed
            fleet.frontend.request({"op": "get", "key": f"r{i}"})
            samples.append(fleet.clock.total)
        fleet.frontend.heal_quarantined()
        for i in range(6):
            fleet.frontend.request({"op": "get", "key": f"h{i}"})
            samples.append(fleet.clock.total)
        return samples

    def test_clock_samples_never_decrease_across_reboot(self):
        fleet = attested_fleet()
        samples = self._crash_schedule(fleet)
        assert all(b >= a for a, b in zip(samples, samples[1:]))
        assert fleet.replicas["replica1"].reboots == 1
        # The reboot really did zero the ledger the clock absorbs.
        assert fleet.replicas["replica1"].ledger.total < samples[-1]

    def test_rebooted_replica_serves_after_heal(self):
        fleet = attested_fleet()
        self._crash_schedule(fleet)
        assert not fleet.frontend.health["replica1"].quarantined
        assert fleet.frontend.routed["replica1"] > 0

    def test_trace_clock_survives_the_reboot(self):
        """Booting the fresh CVM re-attaches the shared tracer to the
        new machine's own zeroed ledger; ``reboot_replica`` must hand
        the clock back to fleet time or every timestamp after the
        reboot rewinds by the whole pre-reboot epoch."""
        tracer = Tracer()
        fleet = attested_fleet(tracer=tracer)
        for i in range(6):
            fleet.frontend.request({"op": "get", "key": f"k{i}"})
        before = tracer.now()
        fleet.reboot_replica("replica1")
        assert tracer.now() >= before          # clock was not hijacked
        assert tracer.now() == fleet.clock.total
        fleet.frontend.heal_quarantined()
        for i in range(4):
            fleet.frontend.request({"op": "get", "key": f"h{i}"})
        assert validate_chrome_trace(chrome_trace(tracer)) == []
