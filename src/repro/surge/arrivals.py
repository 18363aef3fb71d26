"""Seeded open-loop arrival plans (the traffic side of veil-surge).

An :class:`ArrivalPlan` is to load what a
:class:`~repro.chaos.plan.FaultPlan` is to failure: a named
:class:`ArrivalProfile` (the *shape* of offered traffic) plus a seeded
SplitMix64 stream (:class:`~repro.hw.rng.DeterministicRandom`: exactly
*when* each request lands), so the same seed replays the identical
arrival schedule byte for byte.  Three shapes cover the evaluation's
workload classes:

``poisson``
    Memoryless arrivals at a constant mean rate -- the open-loop
    baseline every queueing result is stated against.
``bursty``
    ON/OFF traffic: geometrically-sized bursts at a high instantaneous
    rate separated by idle gaps, same long-run mean rate as the poisson
    plan.  This is what actually hurts tail latency.
``diurnal``
    A slow sinusoidal sweep of the instantaneous rate between
    ``1 - swing`` and ``1 + swing`` of the mean across the plan -- a
    day of traffic compressed into one run, so a single schedule walks
    the fleet through under- and over-provisioned regimes.

Timestamps are integer cycles on the fleet's virtual clock.  The mean
inter-arrival gap is a parameter (``mean_gap_cycles``); the bench
derives it from measured service rates so "offered load 2.0" means
twice what the fleet can serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..cluster.fleet import request_payload
from ..errors import SimulationError
from ..hw.rng import DeterministicRandom


@dataclass(frozen=True)
class ArrivalProfile:
    """Shape of one open-loop traffic plan."""

    name: str
    #: Mean inter-arrival gap in cycles (the offered-rate dial; the
    #: bench overrides this from measured service capacity).
    mean_gap_cycles: int = 20_000
    #: Mean burst size for the ON/OFF shape (0 = not bursty).
    burst_mean: int = 0
    #: Intra-burst gap as a fraction of the mean gap (per mille).
    burst_gap_permille: int = 50
    #: Peak-to-mean swing of the diurnal sweep (per mille; 0 = flat).
    diurnal_swing_permille: int = 0
    #: Full sinusoid periods across the plan (diurnal only).
    diurnal_periods: int = 1

    def with_gap(self, mean_gap_cycles: int) -> "ArrivalProfile":
        """The same shape at a different offered rate."""
        return replace(self, mean_gap_cycles=mean_gap_cycles)


#: Named plans the CLI / CI smoke / tests select by name.
ARRIVALS: dict[str, ArrivalProfile] = {
    "poisson": ArrivalProfile("poisson"),
    "bursty": ArrivalProfile("bursty", burst_mean=32,
                             burst_gap_permille=40),
    "diurnal": ArrivalProfile("diurnal", diurnal_swing_permille=700,
                              diurnal_periods=2),
}


def arrivals_by_name(name: str) -> ArrivalProfile:
    """Look up a named profile (SimulationError on unknown names)."""
    try:
        return ARRIVALS[name]
    except KeyError:
        raise SimulationError(
            f"unknown arrival profile {name!r}; choose from "
            f"{', '.join(sorted(ARRIVALS))}") from None


@dataclass(frozen=True)
class Arrival:
    """One planned request: when it lands and what it asks for."""

    index: int
    ts: int                     # virtual-clock cycles
    payload: dict               # the request body (op, key, ...)
    klass: str                  # workload class ("get", "set", "insert")


class ArrivalPlan:
    """One seeded, replayable open-loop traffic schedule.

    The schedule is generated eagerly and cached: ``schedule()`` is a
    pure function of ``(seed, profile, requests, workload)``, so two
    plans built alike agree on every timestamp and payload -- the
    determinism suite diffs them byte for byte.  Payloads come from
    :func:`~repro.cluster.fleet.request_payload`, like the closed loop's.
    """

    def __init__(self, seed: int, profile: ArrivalProfile | str, *,
                 requests: int, workload: str = "memcached"):
        if requests <= 0:
            raise SimulationError(
                f"arrival plan needs requests > 0, got {requests}")
        self.seed = seed
        self.profile = arrivals_by_name(profile) \
            if isinstance(profile, str) else profile
        self.requests = requests
        self.workload = workload
        self.rng = DeterministicRandom(seed)
        self._schedule: list[Arrival] | None = None

    # -- gap processes ---------------------------------------------------

    def _exponential_gap(self, mean: float) -> int:
        """One exponential inter-arrival draw, floored at one cycle."""
        # Inverse CDF on the seeded uniform; 1 - u keeps u == 0 finite.
        gap = -mean * math.log(1.0 - self.rng.random())
        return max(1, int(gap))

    def _poisson_gaps(self) -> list[int]:
        mean = float(self.profile.mean_gap_cycles)
        return [self._exponential_gap(mean)
                for _ in range(self.requests)]

    def _bursty_gaps(self) -> list[int]:
        """ON/OFF: tight bursts, long idles, same long-run mean."""
        profile = self.profile
        mean = float(profile.mean_gap_cycles)
        intra = max(1.0, mean * profile.burst_gap_permille / 1000.0)
        gaps: list[int] = []
        while len(gaps) < self.requests:
            # Geometric burst size with the configured mean (>= 1).
            size = 1
            while self.rng.random() < 1.0 - 1.0 / profile.burst_mean:
                size += 1
            size = min(size, self.requests - len(gaps))
            # The idle gap repays the burst's rate debt so the long-run
            # mean stays at mean_gap_cycles.
            idle = mean * size - intra * (size - 1)
            gaps.append(self._exponential_gap(max(1.0, idle)))
            for _ in range(size - 1):
                gaps.append(self._exponential_gap(intra))
        return gaps[:self.requests]

    def _diurnal_gaps(self) -> list[int]:
        """Sinusoidally-swept rate: the compressed day."""
        profile = self.profile
        mean = float(profile.mean_gap_cycles)
        swing = profile.diurnal_swing_permille / 1000.0
        gaps = []
        for index in range(self.requests):
            phase = (2.0 * math.pi * profile.diurnal_periods *
                     index / self.requests)
            # Rate swings 1 +/- swing, so the gap divides by it.
            rate_factor = 1.0 + swing * math.sin(phase)
            gaps.append(self._exponential_gap(
                mean / max(rate_factor, 1e-3)))
        return gaps

    # -- the schedule ----------------------------------------------------

    def schedule(self) -> list[Arrival]:
        """The full arrival schedule, cached after first build."""
        if self._schedule is not None:
            return self._schedule
        profile = self.profile
        if profile.burst_mean > 1:
            gaps = self._bursty_gaps()
        elif profile.diurnal_swing_permille:
            gaps = self._diurnal_gaps()
        else:
            gaps = self._poisson_gaps()
        arrivals = []
        ts = 0
        for index, gap in enumerate(gaps):
            ts += gap
            payload = request_payload(self.workload, index)
            arrivals.append(Arrival(index=index, ts=ts, payload=payload,
                                    klass=payload["op"]))
        self._schedule = arrivals
        return arrivals

    def span_cycles(self) -> int:
        """Virtual cycles from time zero to the last arrival."""
        return self.schedule()[-1].ts

    def offered_gap_cycles(self) -> float:
        """Realized mean inter-arrival gap of this schedule."""
        return self.span_cycles() / self.requests
