"""Seeded, replayable fault schedules (veil-chaos).

A :class:`FaultPlan` is the deterministic adversary: a named
:class:`FaultProfile` (what *kinds* of faults, at what rates) plus a
seeded SplitMix64 generator (:class:`~repro.hw.rng.DeterministicRandom`:
exactly *which* messages and replicas get hit).  Because the simulator
has no wall clock and every random draw comes from the plan's own
generator, re-running the same seed + profile replays the identical
fault schedule -- the ``events`` log two runs produce is byte-for-byte
equal, which is what makes chaos failures debuggable.

The plan is *inert until activated*: with ``active`` False (or no plan
at all) the chaos-wrapped fabric is pass-through and runs are
byte-identical to an unwrapped fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..hw.rng import DeterministicRandom


@dataclass(frozen=True)
class FaultProfile:
    """Rates and periods for one class of chaos schedule."""

    name: str
    #: Per-message probability the fabric drops it outright.
    drop: float = 0.0
    #: Per-message probability it is delivered twice.
    duplicate: float = 0.0
    #: Per-message probability it is held and re-delivered later
    #: (reordering past messages sent in the meantime).
    delay: float = 0.0
    #: Per-message probability one bit is flipped in flight.
    corrupt: float = 0.0
    #: Crash one replica every this many requests (0 = never).
    crash_period: int = 0
    #: Requests a crashed replica stays down before restarting.
    downtime: int = 3
    #: Byzantine hypervisor: corrupt this many attestation replies on
    #: one victim replica before the initial handshakes.
    corrupt_attestations: int = 0
    #: Byzantine hypervisor: inject a spurious exit on some replica
    #: every this many requests (0 = never).
    spurious_period: int = 0


#: Named schedules the CLI / CI smoke / tests select by name.  ``none``
#: injects nothing: its zero rates draw no randomness, so it runs the
#: clean fleet (``repro cluster``).
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile("none"),
    "drops": FaultProfile("drops", drop=0.12),
    "dup-reorder": FaultProfile("dup-reorder", duplicate=0.12,
                                delay=0.15),
    "corrupt": FaultProfile("corrupt", corrupt=0.10),
    "crash": FaultProfile("crash", crash_period=6, downtime=4),
    "byzantine": FaultProfile("byzantine", corrupt_attestations=1,
                              spurious_period=4),
    "mayhem": FaultProfile("mayhem", drop=0.06, duplicate=0.06,
                           delay=0.08, corrupt=0.05, crash_period=9,
                           downtime=3, spurious_period=7),
}


def profile_by_name(name: str) -> FaultProfile:
    """Look up a named profile (SimulationError on unknown names)."""
    try:
        return PROFILES[name]
    except KeyError:
        raise SimulationError(
            f"unknown chaos profile {name!r}; choose from "
            f"{', '.join(sorted(PROFILES))}") from None


@dataclass
class MessageFate:
    """What the fabric does with one message under the plan."""

    payload: bytes
    drop: bool = False
    copies: int = 1
    #: Sends to hold the message back before delivery (0 = deliver now).
    hold: int = 0
    corrupted: bool = False


class FaultPlan:
    """One seeded, replayable chaos schedule."""

    def __init__(self, seed: int, profile: FaultProfile | str):
        self.seed = seed
        self.profile = profile_by_name(profile) \
            if isinstance(profile, str) else profile
        self.rng = DeterministicRandom(seed)
        #: Injection is gated: inactive plans never consume randomness
        #: on the message path, so wrapped-but-inactive runs stay
        #: byte-identical to unwrapped ones.
        self.active = False
        #: Replayable record of every injected fault, in order.
        self.events: list[tuple] = []
        self._sequence = 0

    def activate(self) -> None:
        """Start injecting faults."""
        self.active = True

    def deactivate(self) -> None:
        """Stop injecting faults (the schedule record is kept)."""
        self.active = False

    def record(self, kind: str, *detail) -> None:
        """Append one schedule event (index, kind, detail...)."""
        self.events.append((len(self.events), kind) + tuple(detail))

    def chance(self, probability: float) -> bool:
        """One seeded Bernoulli draw."""
        return probability > 0 and self.rng.random() < probability

    def pick(self, items: list):
        """One seeded uniform choice (None from an empty list)."""
        if not items:
            return None
        return items[self.rng.randrange(len(items))]

    def fate(self, src: str, dst: str, payload: bytes) -> MessageFate:
        """Decide what happens to one fabric message."""
        index = self._sequence
        self._sequence += 1
        profile = self.profile
        if not self.active:
            return MessageFate(payload)
        if self.chance(profile.drop):
            self.record("drop", src, dst, index)
            return MessageFate(payload, drop=True)
        fate = MessageFate(payload)
        if self.chance(profile.corrupt):
            fate.payload = self._flip_bit(payload)
            fate.corrupted = True
            self.record("corrupt", src, dst, index)
        if self.chance(profile.duplicate):
            fate.copies = 2
            self.record("duplicate", src, dst, index)
        if self.chance(profile.delay):
            fate.hold = 1 + self.rng.randrange(3)
            self.record("delay", src, dst, index, fate.hold)
        return fate

    def _flip_bit(self, payload: bytes) -> bytes:
        """Flip one seeded bit (empty payloads pass through)."""
        if not payload:
            return payload
        index = self.rng.randrange(len(payload))
        bit = self.rng.randrange(8)
        flipped = bytearray(payload)
        flipped[index] ^= 1 << bit
        return bytes(flipped)
