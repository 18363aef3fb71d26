"""veil-surge bench: the throughput-vs-offered-load knee.

The open-loop question a capacity planner actually asks: as offered
load sweeps past what the fleet can serve, where does throughput stop
tracking the offered rate (the *knee*), and what happens to tail
latency on the way?  :func:`run_surge_bench` answers it per arrival
class -- each named :data:`~repro.surge.arrivals.ARRIVALS` shape is
swept across load factors, recording achieved throughput and
p50/p95/p99 cycle latency at each point -- plus one flagship run at the
default config that must sustain the 1000-in-flight bar.

Every number here is *virtual*: cycle latencies, virtual-time
throughput, event counts -- no wall clock.  The whole
``BENCH_surge.json`` artifact is therefore byte-reproducible: two runs
of the bench on any machines produce identical files, and CI compares
a fresh sweep with the committed file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..surge import ARRIVALS, SurgeConfig, run_surge

#: Load factors swept per arrival class (fractions of estimated fleet
#: capacity).  0.5 is comfortably under the knee, 2.0 comfortably past.
KNEE_LOADS = (0.5, 0.8, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class KneePoint:
    """One (arrival class, load factor) sweep measurement."""

    arrivals: str
    load: float
    offered_rps: float
    throughput_rps: float
    completed: int
    shed: int
    max_in_flight: int
    peak_queue_depth: int
    latency: dict                 # class -> {p50, p95, p99} cycles

    def as_dict(self) -> dict:
        """JSON-serializable form (one row of the knee table)."""
        return {
            "arrivals": self.arrivals,
            "load": self.load,
            "offered_rps": round(self.offered_rps, 1),
            "throughput_rps": round(self.throughput_rps, 1),
            "completed": self.completed,
            "shed": self.shed,
            "max_in_flight": self.max_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "latency": {k: dict(v)
                        for k, v in sorted(self.latency.items())},
        }


@dataclass(frozen=True)
class SurgeBenchResult:
    """The knee sweep + flagship run + replay check, one artifact."""

    flagship: dict                # SurgeResult.summary_dict()
    knee: tuple                   # KneePoint per (class, load)
    replay_ok: bool               # same-seed smoke replays byte-identical
    seed: int
    replicas: int

    def as_dict(self) -> dict:
        """JSON-serializable result (the ``BENCH_surge.json`` payload)."""
        return {
            "seed": self.seed,
            "replicas": self.replicas,
            "flagship": self.flagship,
            "knee": [point.as_dict() for point in self.knee],
            "replay_ok": self.replay_ok,
        }


def _sweep_point(arrivals: str, load: float, *, seed: int,
                 replicas: int, requests: int) -> KneePoint:
    """One seeded open-loop run at ``(arrivals, load)``."""
    result = run_surge(SurgeConfig(
        seed=seed, arrivals=arrivals, replicas=replicas,
        requests=requests, load=load))
    return KneePoint(
        arrivals=arrivals, load=load, offered_rps=result.offered_rps,
        throughput_rps=result.throughput_rps,
        completed=result.completed, shed=result.shed,
        max_in_flight=result.max_in_flight,
        peak_queue_depth=result.peak_queue_depth,
        latency=result.latency)


def smoke_summary(seed: int = 1) -> dict:
    """The small seeded run behind ``repro surge --smoke``.

    Deliberately tiny (4 replicas, 300 requests) and fully virtual, so
    CI can run it twice and byte-compare the JSON -- the cheapest
    end-to-end replay check of the whole surge stack.
    """
    result = run_surge(SurgeConfig(seed=seed, replicas=4, requests=300,
                                   load=2.0))
    return result.summary_dict()


def run_surge_bench(*, seed: int = 1, replicas: int = 8,
                    requests: int = 2000, knee_requests: int = 600,
                    loads: tuple = KNEE_LOADS) -> SurgeBenchResult:
    """The full bench: flagship run, knee sweep, replay check."""
    flagship = run_surge(SurgeConfig(seed=seed, replicas=replicas,
                                     requests=requests))
    knee = tuple(
        _sweep_point(arrivals, load, seed=seed, replicas=replicas,
                     requests=knee_requests)
        for arrivals in sorted(ARRIVALS) for load in loads)
    replay = json.dumps(smoke_summary(seed), sort_keys=True)
    replay_ok = replay == json.dumps(smoke_summary(seed), sort_keys=True)
    return SurgeBenchResult(
        flagship=flagship.summary_dict(), knee=knee,
        replay_ok=replay_ok, seed=seed, replicas=replicas)


def render_surge_bench(result: SurgeBenchResult) -> str:
    """Human-readable knee report."""
    flagship = result.flagship
    lines = [
        "veil-surge: open-loop throughput-vs-offered-load knee",
        f"  fleet: {result.replicas} replicas, seed {result.seed}",
        f"  flagship ({flagship['config']['arrivals']}, load "
        f"{flagship['config']['load']}): "
        f"{flagship['completed']:,} completed, max in-flight "
        f"{flagship['max_in_flight']:,}, peak queue "
        f"{flagship['peak_queue_depth']:,}",
        f"  replay check: {'OK' if result.replay_ok else 'VIOLATED'}",
        "",
        f"  {'arrivals':<9} {'load':>5} {'offered rps':>12} "
        f"{'achieved rps':>13} {'p50 cyc':>11} {'p99 cyc':>11} "
        f"{'max inflt':>10}",
    ]
    for point in result.knee:
        # The knee table reports the dominant class (gets) -- the 90%
        # of traffic whose tail the sweep is about.
        pct = point.latency.get("get") or \
            next(iter(sorted(point.latency.items())), (None, {}))[1]
        lines.append(
            f"  {point.arrivals:<9} {point.load:>5.2f} "
            f"{point.offered_rps:>12,.0f} "
            f"{point.throughput_rps:>13,.0f} "
            f"{pct.get('p50', 0):>11,} {pct.get('p99', 0):>11,} "
            f"{point.max_in_flight:>10,}")
    return "\n".join(lines)


def write_surge_json(result: SurgeBenchResult, path: str) -> None:
    """Write the ``BENCH_surge.json`` artifact (byte-reproducible)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
