"""Metric definitions and the statistics every report uses.

The tables here are the benchmark's single source of truth:
``BENCHMARK.json`` lists the same names, units, directions and bounds
(``perf/tests`` checks that they agree).  ``clock`` says which of the
system's two clocks a metric reads: ``host`` is what the simulator
costs on this machine, ``virtual`` is the cycle model's answer and is
exactly reproducible for a given seed, ``count`` is a plain tally.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: The workloads, in run order (defined in ``perf/workloads.py``).
WORKLOAD_NAMES = ("enclave-syscalls", "audit-log", "fleet-surge",
                  "fleet-chaos")


@dataclass(frozen=True)
class Metric:
    """One reported metric."""

    name: str
    unit: str
    better: str            # "lower" | "higher"
    clock: str             # "host" | "virtual" | "count"
    what: str
    #: Share of the parent's median the metric may worsen by (end-to-end
    #: metrics only; per-layer metrics carry no bound).
    bound: float | None = None


#: Each bound is at least three times the largest spread (IQR over median)
#: measured across ten runs with seeds 1-10, see ``perf/baseline.json``.
#: Host spread comes from the machine and, on fleet-chaos, from how much
#: recovery work the seed's crash schedule causes; virtual metrics never
#: move for a fixed seed, so their spread is all between seeds.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "host time inside the boot calls of one round (median)", 0.25),
    Metric("wall_s", "s", "lower", "host",
           "host time of one whole round: boots, work and output "
           "checks (median)", 0.24),
    Metric("sim_ops_per_s", "op/s", "higher", "host",
           "ops completed per host second of a round, boots excluded "
           "(median)", 0.24),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "peak resident memory of the workload's process before its "
           "traced round", 0.10),
    Metric("cycles_per_op", "cycles", "lower", "virtual",
           "virtual cycles charged to every ledger after set-up, per op",
           0.10),
    Metric("p50_cycles", "cycles", "lower", "virtual",
           "median virtual latency of one op", 0.05),
    Metric("p99_cycles", "cycles", "lower", "virtual",
           "99th-percentile virtual latency of one op", 0.20),
    Metric("goodput_rps", "op/s", "higher", "virtual",
           "ops completed per virtual second", 0.22),
    Metric("ok_ratio", "fraction", "higher", "count",
           "ops that completed and passed their output check, over ops "
           "attempted", 0.01),
    Metric("paper_err_pp", "pp", "lower", "virtual",
           "mean absolute gap between the model's overheads and the "
           "paper's, for the figures this workload runs", 0.05),
)

#: Ledger categories the cycle model charges (``repro.hw.cycles``).
LEDGER_CATEGORIES = (
    "domain_switch", "copy", "page_table_walk", "rmpadjust", "pvalidate",
    "tlb_flush", "exit", "msr", "wbinvd", "syscall", "audit", "idle",
    "monitor", "service", "compute", "crypto", "net", "backoff",
)

#: Layers measured from outside (see ``perf/layers.py``).
HOST_LAYERS = ("hw", "hv", "core", "core.services", "kernel", "enclave",
               "crypto", "cluster", "surge", "chaos", "scope")


def _per_layer() -> tuple[Metric, ...]:
    metrics = []
    for layer in HOST_LAYERS:
        metrics += [
            Metric(f"{layer}.self_s", "s", "lower", "host",
                   f"self time inside {layer} boundaries, traced round"),
            Metric(f"{layer}.calls", "count", "lower", "count",
                   f"{layer} boundary calls in the traced round"),
            Metric(f"{layer}.share", "fraction", "lower", "host",
                   f"{layer} self time over traced-round wall time"),
        ]
    metrics += [
        Metric("trace.overhead_pct", "%", "lower", "host",
               "traced round versus the median untraced round"),
        Metric("trace.unattributed_s", "s", "lower", "host",
               "traced-round time outside every boundary span"),
        Metric("trace.coverage", "fraction", "higher", "host",
               "share of the traced round attributed to a layer"),
    ]
    metrics += [
        Metric(f"cycles.{category}", "cycles", "lower", "virtual",
               f"virtual cycles charged as {category}, per op")
        for category in LEDGER_CATEGORIES]
    metrics += [
        Metric("tlb.hit_ratio", "fraction", "higher", "count",
               "software-TLB translation hits over lookups"),
        Metric("tlb.rmp_hit_ratio", "fraction", "higher", "count",
               "RMP verdict-cache hits over lookups"),
        Metric("tlb.flushes_per_op", "count", "lower", "count",
               "software-TLB flushes per op"),
        Metric("enclave.exits_per_op", "count", "lower", "count",
               "enclave exits per op"),
        Metric("enclave.redirect_bytes_per_op", "B", "lower", "count",
               "bytes marshalled across the enclave boundary per op"),
        Metric("log.entries_per_op", "count", "lower", "count",
               "VeilS-LOG records appended per op"),
        Metric("surge.queue_wait_p99_cycles", "cycles", "lower", "virtual",
               "99th-percentile queue wait, surge run at load 0.8"),
        Metric("surge.service_p99_cycles", "cycles", "lower", "virtual",
               "99th-percentile service time, surge run at load 0.8"),
        Metric("surge.max_in_flight", "count", "lower", "count",
               "most requests in flight, surge run at load 1.5"),
        Metric("surge.peak_queue_depth", "count", "lower", "count",
               "deepest per-replica backlog, surge run at load 1.5"),
        Metric("surge.arrival_lateness_cycles", "cycles", "lower",
               "virtual", "latest an arrival fired after its due time"),
        Metric("cluster.attempts_per_request", "count", "lower", "count",
               "delivery attempts per completed request"),
        Metric("cluster.retries", "count", "lower", "count",
               "failed delivery attempts in a round"),
        Metric("cluster.quarantines", "count", "lower", "count",
               "replicas quarantined in a round"),
        Metric("cluster.reattestations", "count", "lower", "count",
               "quarantined replicas re-admitted by re-attestation"),
        Metric("chaos.injected_events", "count", "lower", "count",
               "faults the chaos schedule injected in a round"),
    ]
    return tuple(metrics)


PER_LAYER: tuple[Metric, ...] = _per_layer()

BY_NAME: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


# -- statistics --------------------------------------------------------------

def median(values) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iqr(values) -> float:
    """Distance between the first and third quartile."""
    q1, q3 = quartiles(values)
    return q3 - q1


def percentile(values, p: float) -> int:
    """Exact nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
