"""ArrivalPlan unit tests: shapes, payload mix, parameter validation."""

import pytest

from repro.cluster.fleet import KEYSPACE, request_payload
from repro.errors import SimulationError
from repro.surge.arrivals import (ARRIVALS, ArrivalPlan, ArrivalProfile,
                                  arrivals_by_name)


class TestProfiles:
    def test_named_profiles_cover_the_three_shapes(self):
        assert set(ARRIVALS) == {"poisson", "bursty", "diurnal"}

    def test_unknown_profile_refused(self):
        with pytest.raises(SimulationError, match="unknown arrival"):
            arrivals_by_name("pareto")

    def test_with_gap_changes_only_the_rate(self):
        fast = ARRIVALS["bursty"].with_gap(500)
        assert fast.mean_gap_cycles == 500
        assert fast.burst_mean == ARRIVALS["bursty"].burst_mean

    def test_string_profile_resolves_in_the_plan(self):
        plan = ArrivalPlan(1, "poisson", requests=4)
        assert plan.profile is ARRIVALS["poisson"]


class TestSchedules:
    def test_timestamps_are_strictly_increasing(self):
        """Gaps are floored at one cycle, so no two arrivals collide."""
        for name in ARRIVALS:
            plan = ArrivalPlan(3, name, requests=200)
            ts = [a.ts for a in plan.schedule()]
            assert all(b > a for a, b in zip(ts, ts[1:])), name
            assert ts[0] > 0

    def test_schedule_length_and_indices(self):
        plan = ArrivalPlan(1, "poisson", requests=50)
        arrivals = plan.schedule()
        assert len(arrivals) == 50
        assert [a.index for a in arrivals] == list(range(50))

    def test_memcached_mix_is_90_10(self):
        plan = ArrivalPlan(1, "poisson", requests=100)
        klasses = [a.klass for a in plan.schedule()]
        assert klasses.count("set") == 10
        assert klasses.count("get") == 90
        assert plan.schedule()[0].payload["op"] == "set"

    def test_sqlite_workload_is_all_inserts(self):
        plan = ArrivalPlan(1, "poisson", requests=20, workload="sqlite")
        assert {a.klass for a in plan.schedule()} == {"insert"}

    def test_keyspace_cycles(self):
        plan = ArrivalPlan(1, "poisson", requests=2 * KEYSPACE)
        keys = [a.payload["key"] for a in plan.schedule()]
        assert KEYSPACE == 16
        assert keys[:KEYSPACE] == [f"key{i}" for i in range(KEYSPACE)]
        assert keys[KEYSPACE:] == keys[:KEYSPACE]

    @pytest.mark.parametrize("workload", ["memcached", "sqlite"])
    def test_payloads_are_the_fleet_request_stream(self, workload):
        """Open and closed loops issue the same requests."""
        plan = ArrivalPlan(2, "bursty", requests=60, workload=workload)
        for arrival in plan.schedule():
            assert arrival.payload == request_payload(workload,
                                                      arrival.index)
            assert arrival.klass == arrival.payload["op"]

    def test_zero_requests_refused(self):
        with pytest.raises(SimulationError, match="requests > 0"):
            ArrivalPlan(1, "poisson", requests=0)

    def test_schedule_is_cached(self):
        plan = ArrivalPlan(1, "poisson", requests=10)
        assert plan.schedule() is plan.schedule()


class TestRates:
    def test_poisson_mean_gap_tracks_the_profile(self):
        """The realized mean inter-arrival gap lands near the dialed
        mean (exponential draws, 2000 samples: well within 10%)."""
        profile = ARRIVALS["poisson"].with_gap(10_000)
        plan = ArrivalPlan(7, profile, requests=2000)
        realized = plan.offered_gap_cycles()
        assert 9_000 < realized < 11_000

    def test_bursty_repays_its_rate_debt(self):
        """ON/OFF bursts at the same long-run rate as poisson: tight
        intra-burst gaps, idle gaps sized to keep the overall mean."""
        profile = ARRIVALS["bursty"].with_gap(10_000)
        plan = ArrivalPlan(7, profile, requests=2000)
        gaps = [b.ts - a.ts for a, b in zip(plan.schedule(),
                                            plan.schedule()[1:])]
        intra = sum(1 for g in gaps if g < 2_000)
        assert intra > len(gaps) // 2        # most gaps are burst-tight
        realized = plan.offered_gap_cycles()
        assert 8_000 < realized < 13_000     # long-run mean preserved

    def test_diurnal_rate_actually_swings(self):
        """The compressed day: gaps in the trough half are measurably
        longer than in the peak half of each sinusoid period."""
        profile = ArrivalProfile("diurnal", mean_gap_cycles=10_000,
                                 diurnal_swing_permille=700,
                                 diurnal_periods=1)
        plan = ArrivalPlan(7, profile, requests=2000)
        arrivals = plan.schedule()
        gaps = [b.ts - a.ts for a, b in zip(arrivals, arrivals[1:])]
        peak = sum(gaps[:900]) / 900         # sin > 0: rate above mean
        trough = sum(gaps[1100:]) / 900      # sin < 0: rate below mean
        assert trough > peak * 1.5

    def test_span_matches_last_arrival(self):
        plan = ArrivalPlan(1, "poisson", requests=10)
        assert plan.span_cycles() == plan.schedule()[-1].ts
