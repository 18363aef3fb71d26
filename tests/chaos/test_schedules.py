"""End-to-end: every named schedule is survivable and replayable."""

import pytest

from repro.chaos import PROFILES, ChaosConfig, run_chaos_cluster
from repro.errors import SimulationError

REQUESTS = 24
SEED = 7


def run(profile, seed=SEED, **overrides):
    config = ChaosConfig(seed=seed, profile=profile, requests=REQUESTS,
                         **overrides)
    return run_chaos_cluster(config)


@pytest.fixture(scope="module")
def results():
    """One run per named profile (fleet boots are expensive)."""
    return {name: run(name) for name in sorted(PROFILES)}


class TestEverySchedule:
    def test_workload_completes_without_raising(self, results):
        for name, result in results.items():
            assert result.completed == REQUESTS, name
            assert result.failed == 0, name

    def test_invariants_hold(self, results):
        for name, result in results.items():
            assert result.invariants.ok, (name,
                                          result.invariants.violations)
            assert result.invariants.audit_verified \
                or result.invariants.tampering_detected, name
            assert result.invariants.messages_scanned > 0, name

    def test_faults_were_actually_injected(self, results):
        for name, result in results.items():
            if name == "none":
                assert result.events == [], "'none' injected faults"
            else:
                assert result.events, f"profile {name} injected nothing"


class TestReplayability:
    def test_same_seed_replays_identical_schedule(self, results):
        again = run("mayhem")
        assert again.events == results["mayhem"].events
        assert again.completed == results["mayhem"].completed
        assert again.retries == results["mayhem"].retries
        assert again.cluster.replica_cycles == \
            results["mayhem"].cluster.replica_cycles
        assert again.cluster.frontend_cycles == \
            results["mayhem"].cluster.frontend_cycles

    def test_different_seed_different_schedule(self, results):
        assert run("mayhem", seed=8).events != results["mayhem"].events


class TestProfileBehaviors:
    def test_drops_force_retries(self, results):
        assert results["drops"].retries > 0

    def test_crash_schedule_crashes_and_recovers(self, results):
        result = results["crash"]
        assert sum(result.crashes.values()) > 0
        assert result.crashes["replica0"] == 0     # exempt by design
        assert result.quarantines > 0
        assert result.reattestations > 0

    def test_byzantine_attestation_is_detected(self, results):
        result = results["byzantine"]
        assert result.cluster.rejected, \
            "corrupted attestation was not rejected"
        assert "signature" in result.cluster.rejected[0].reason

    def test_corrupt_schedule_never_leaks_or_crashes(self, results):
        result = results["corrupt"]
        assert result.invariants.ok
        assert any(event[1] == "corrupt" for event in result.events)


class TestDegenerateConfig:
    @pytest.mark.parametrize("field, value", [
        ("requests", -3), ("requests", 0), ("replicas", 0)])
    def test_refused(self, field, value):
        with pytest.raises(SimulationError,
                           match=f"{field} must be at least 1, got {value}"):
            ChaosConfig(**{field: value})

    def test_every_replica_rejected_refused(self):
        # The byzantine victim is the only replica, so the relying party
        # admits nobody; the run must refuse instead of serving nothing.
        with pytest.raises(SimulationError,
                           match="^no attested replicas admitted$"):
            run("byzantine", replicas=1)
