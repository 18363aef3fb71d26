"""Open-loop runner behavior: overlap, admission, autoscaling."""

import pytest

from repro.errors import SimulationError
from repro.surge import SurgeConfig, run_surge


def small(**overrides) -> SurgeConfig:
    defaults = dict(seed=3, replicas=2, requests=120, load=2.0)
    defaults.update(overrides)
    return SurgeConfig(**defaults)


class TestOpenLoop:
    def test_every_arrival_completes_on_a_healthy_fleet(self):
        result = run_surge(small())
        assert result.completed == 120
        assert result.failed == 0 and result.shed == 0
        assert len(result.scope.records) == 120
        assert all(r.status == "ok" for r in result.scope.records)

    def test_requests_genuinely_overlap_in_flight(self):
        """The whole point: offered load 2x capacity means the backlog
        grows -- closed-loop could never exceed 1 in flight."""
        result = run_surge(small())
        assert result.max_in_flight > 10
        assert result.peak_queue_depth > 1
        assert result.scope.max_in_flight == result.max_in_flight

    def test_latency_decomposes_into_queue_wait_plus_service(self):
        result = run_surge(small())
        for record in result.scope.records:
            assert record.latency == \
                record.queue_wait + record.service_cycles
            assert record.breakdown          # per-layer cycles present

    def test_throughput_saturates_below_offered(self):
        result = run_surge(small())
        assert 0 < result.throughput_rps < result.offered_rps * 0.75

    def test_underload_keeps_up(self):
        result = run_surge(small(load=0.4, requests=80))
        assert result.throughput_rps > result.offered_rps * 0.85
        assert result.max_in_flight < 10

    def test_routing_uses_every_replica(self):
        result = run_surge(small(replicas=3))
        assert set(result.routed_by_replica) == \
            {"replica0", "replica1", "replica2"}
        assert all(n > 0 for n in result.routed_by_replica.values())

    def test_ledgers_and_summary_replay_byte_identically(self):
        a, b = run_surge(small()), run_surge(small())
        assert a.summary_dict() == b.summary_dict()
        for name in a.fleet.replicas:
            assert dict(a.fleet.replicas[name].ledger.by_category) == \
                dict(b.fleet.replicas[name].ledger.by_category)

    def test_unknown_arrivals_refused(self):
        with pytest.raises(SimulationError):
            run_surge(small(arrivals="lognormal"))


class TestDegenerateConfig:
    """A degenerate surge shape is refused, naming the field and value."""

    @pytest.mark.parametrize("field, value", [
        ("load", -1.0), ("load", 0.0), ("load", float("nan")),
        ("load", float("inf")), ("admit_limit", -1), ("min_active", -1),
        ("min_active", 3), ("requests", 0), ("replicas", 0),
        ("concurrency", 0), ("concurrency", -1)])
    def test_refused(self, field, value):
        with pytest.raises(SimulationError,
                           match=rf"^{field} .*, got {value}$"):
            small(**{field: value})

    def test_warm_pool_may_cover_every_replica(self):
        assert small(min_active=2).min_active == 2


class TestAdmissionControl:
    def test_admission_limit_sheds_the_overflow(self):
        capped = run_surge(small(admit_limit=8))
        assert capped.shed > 0
        assert capped.completed == 120 - capped.shed
        assert capped.max_in_flight <= 8
        # Shed requests still leave failed records (auditability).
        failed = [r for r in capped.scope.records
                  if r.status == "failed"]
        assert len(failed) == capped.shed
        assert all("shed" in r.reason for r in failed)

    def test_shedding_protects_admitted_tail_latency(self):
        open_run = run_surge(small())
        capped = run_surge(small(admit_limit=8))
        assert capped.latency["get"]["p99"] < \
            open_run.latency["get"]["p99"]


class TestAutoscaler:
    def test_scales_up_under_pressure(self):
        result = run_surge(small(replicas=4, min_active=1,
                                 requests=200))
        ups = [e for e in result.scale_events if e[1] == "up"]
        assert ups, "2x load on one replica must trigger scale-up"
        assert result.active_high_water > 1
        # Standbys that were activated actually served traffic.
        served = {n for n, c in result.routed_by_replica.items() if c}
        assert len(served) >= 2

    def test_overprovisioned_fleet_drains_back_down(self):
        """Scale-up overshoots (2x of one replica's capacity, but each
        activation adds a whole replica), so the backlog clears and the
        scaler must hand surplus replicas back to the warm pool."""
        result = run_surge(small(replicas=4, min_active=1,
                                 requests=200))
        ups = [e for e in result.scale_events if e[1] == "up"]
        downs = [e for e in result.scale_events if e[1] == "down"]
        assert ups and downs
        assert downs[0][0] > ups[0][0]      # drain follows the surge

    def test_scale_events_are_timestamped_and_ordered(self):
        result = run_surge(small(replicas=4, min_active=1,
                                 requests=200))
        times = [ts for ts, _kind, _name in result.scale_events]
        assert times == sorted(times)

    def test_no_scaler_without_min_active(self):
        result = run_surge(small())
        assert result.scale_events == []
        assert result.active_high_water == 2
