"""hw.rng: the stack's sanctioned deterministic randomness."""

from repro.chaos import FaultPlan
from repro.hw import DeterministicRandom
from repro.surge.arrivals import ArrivalPlan

import pytest


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRandom(42), DeterministicRandom(42)
        assert [a.next_u64() for _ in range(8)] == \
            [b.next_u64() for _ in range(8)]

    def test_known_answer_pins_the_stream(self):
        """SplitMix64(0) first output is fixed forever: replayed seeds
        must mean the same bytes across releases."""
        assert DeterministicRandom(0).next_u64() == \
            0xE220A8397B1DCDAF

    def test_token_bytes_length_and_determinism(self):
        rng = DeterministicRandom(7)
        blob = rng.token_bytes(33)
        assert len(blob) == 33
        assert blob == DeterministicRandom(7).token_bytes(33)
        assert DeterministicRandom(7).token_bytes(0) == b""

    def test_token_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            DeterministicRandom(7).token_bytes(-1)

    def test_random_in_unit_interval(self):
        rng = DeterministicRandom(3)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_chaos_splitmix_is_the_same_stream(self):
        """The chaos and surge plans draw this generator's stream for
        their seed: pre-existing fault and arrival schedule seeds replay
        unchanged."""
        streams = [[rng.next_u64() for _ in range(16)] for rng in (
            DeterministicRandom(123), FaultPlan(123, "mayhem").rng,
            ArrivalPlan(123, "poisson", requests=1).rng)]
        assert streams[0] == streams[1] == streams[2]


class TestGetrandomDeterminism:
    def test_two_boots_read_identical_entropy(self):
        """sys_getrandom draws from the boot-seeded pool: part of the
        machine's measured state, so replays agree byte for byte."""
        from repro.kernel.syscalls import SyscallTable

        class _Kernel:
            pass

        a = SyscallTable(_Kernel())
        b = SyscallTable(_Kernel())
        assert a._entropy_pool.token_bytes(64) == \
            b._entropy_pool.token_bytes(64)
