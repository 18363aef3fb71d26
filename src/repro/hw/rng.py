"""Deterministic randomness for the simulated hardware stack.

The byte-identical-trace contract (veil-turbo / veil-chaos) forbids
ambient entropy anywhere a ledger or exported trace can see: two runs
with the same seed must agree bit for bit.  This module is the one
sanctioned randomness facility for those layers -- a hand-rolled
SplitMix64 stream, pinned here rather than delegated to
``random.Random`` so a replayed seed means the same bytes forever, not
"until the stdlib reshuffles".

Consumers: the kernel's ``getrandom`` syscall draws from a
:class:`DeterministicRandom` seeded at boot (modeling a virtio-rng whose
entropy is part of the measured launch state), and the chaos
``FaultPlan`` and the surge ``ArrivalPlan`` each draw from one seeded
with the run's seed.

The ``crypto`` package intentionally does *not* use this: its default
key generation wants real entropy (``secrets``), and the flow baseline
(``FLOW_BASELINE.json``) carries the justified exceptions.  Parties
whose key material is *visible to the replayed transcript* -- the
monitor's DH pair rides in attestation replies over the chaos fabric --
derive their keys from stable identity instead
(:meth:`repro.crypto.DhKeyPair.from_seed`).
"""

from __future__ import annotations

__all__ = ["DeterministicRandom", "GETRANDOM_SEED"]

#: Boot-time seed for the kernel entropy pool.  Fixed: the simulated
#: machine's "hardware" RNG is part of the measured, replayable state.
GETRANDOM_SEED = 0x5EED_0FE1_1


class DeterministicRandom:
    """SplitMix64: a tiny, seed-stable PRNG independent of CPython.

    64-bit state, one addition and two xor-multiply mixes per output
    word (Steele et al., "Fast splittable pseudorandom number
    generators", OOPSLA 2014).  Not cryptographic -- it feeds simulation
    choices and the modeled entropy pool, never key material.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        """Next 64-bit output word."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, bound: int) -> int:
        """Uniform int in [0, bound); raises ``ValueError`` if empty."""
        if bound <= 0:
            raise ValueError(f"randrange bound {bound} must be > 0")
        return self.next_u64() % bound

    def token_bytes(self, count: int) -> bytes:
        """``count`` pseudorandom bytes (the ``getrandom`` backend)."""
        if count < 0:
            raise ValueError(f"byte count {count} must be >= 0")
        words = (count + 7) // 8
        blob = b"".join(self.next_u64().to_bytes(8, "little")
                        for _ in range(words))
        return blob[:count]
