"""Unit tests: seeded fault plans are deterministic and replayable."""

import pytest

from repro.chaos import PROFILES, FaultPlan, FaultProfile, profile_by_name
from repro.errors import SimulationError


def plan_rng(seed: int):
    """The SplitMix64 generator a fault plan draws from."""
    return FaultPlan(seed, "mayhem").rng


class TestSplitMix64:
    def test_same_seed_same_stream(self):
        a, b = plan_rng(42), plan_rng(42)
        assert [a.next_u64() for _ in range(64)] == \
            [b.next_u64() for _ in range(64)]

    def test_different_seeds_differ(self):
        a, b = plan_rng(1), plan_rng(2)
        assert [a.next_u64() for _ in range(8)] != \
            [b.next_u64() for _ in range(8)]

    def test_stream_is_pinned(self):
        """The generator is hand-rolled so the stream never drifts
        across Python versions; pin its first outputs forever."""
        rng = plan_rng(0)
        assert rng.next_u64() == 16294208416658607535

    def test_random_unit_interval(self):
        rng = plan_rng(7)
        for _ in range(256):
            assert 0.0 <= rng.random() < 1.0

    def test_randrange_bounds(self):
        plan = FaultPlan(7, "mayhem")
        assert all(0 <= plan.rng.randrange(5) < 5 for _ in range(64))
        with pytest.raises(ValueError):
            plan.rng.randrange(0)
        # The plan never asks for an empty range: picking from no
        # replicas draws nothing.
        assert plan.pick([]) is None


class TestProfiles:
    def test_registry_names_match(self):
        for name, profile in PROFILES.items():
            assert profile.name == name
            assert profile_by_name(name) is profile

    def test_unknown_profile_raises(self):
        with pytest.raises(SimulationError):
            profile_by_name("sunshine")


class TestFaultPlan:
    def test_inactive_plan_is_inert(self):
        plan = FaultPlan(3, "mayhem")
        for i in range(32):
            fate = plan.fate("a", "b", b"payload%d" % i)
            assert not fate.drop and fate.copies == 1
            assert fate.hold == 0 and fate.payload == b"payload%d" % i
        assert plan.events == []

    def test_same_seed_same_schedule(self):
        def schedule(seed):
            plan = FaultPlan(seed, "mayhem")
            plan.activate()
            for i in range(200):
                plan.fate("a", "b", b"x" * (10 + i % 5))
            return plan.events

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_drop_rate_one_drops_everything(self):
        plan = FaultPlan(1, FaultProfile("all-drop", drop=1.0))
        plan.activate()
        assert plan.fate("a", "b", b"x").drop
        assert plan.events[0][1] == "drop"

    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan(5, FaultProfile("all-corrupt", corrupt=1.0))
        plan.activate()
        payload = bytes(range(64))
        fate = plan.fate("a", "b", payload)
        assert fate.corrupted and len(fate.payload) == len(payload)
        diff = [x ^ y for x, y in zip(payload, fate.payload) if x != y]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_pick_empty_returns_none(self):
        plan = FaultPlan(1, "drops")
        assert plan.pick([]) is None
        assert plan.pick(["only"]) == "only"
