"""One workload in one process: warm-up, timed rounds, traced round.

:func:`run_workload` is what the child process of ``perf/run.py``
executes.  The protocol:

1. install the workload's probes; run the warm-up-only baselines;
2. one untimed warm-up round (caches fill, first-use set-up happens,
   the reference ledger digest is taken);
3. timed rounds until at least ``MIN_ROUNDS`` rounds and ``seconds`` of
   host time have passed; every round's ledger digest must equal the
   warm-up's (the same-seed determinism contract);
4. peak RSS is read, then one traced round runs with the layer
   wrappers of ``perf/layers.py`` installed.  Its ledgers must equal
   the untraced ones, and the layers must account for at least
   ``MIN_COVERAGE`` of its wall time.

End-to-end numbers come only from the timed rounds; per-layer host
numbers only from the traced round.

Host times are reported in reference seconds (see ``perf/reference.py``):
each round's host times are scaled by the speed of a fixed reference
kernel run before, inside and after the round, because the shared
machine's speed drifts.  The raw seconds are kept beside them.
"""

from __future__ import annotations

import gc
import resource
import time

import layers
import reference
from metrics import (END_TO_END, LEDGER_CATEGORIES, PER_LAYER, iqr, median,
                     percentile)
from workloads import WORKLOADS, Probe

MIN_ROUNDS = 4
MIN_COVERAGE = 0.90


def _measure_round(workload, probe: Probe) -> dict:
    """Run one round and return its samples, host times scaled."""
    gc.collect()
    probe.reset()
    probe.calibrate()
    paused = probe.paused_s
    start = time.perf_counter()
    out = workload.round(probe)
    wall = time.perf_counter() - start - (probe.paused_s - paused)
    probe.calibrate()
    scale = reference.scale(probe.kernel_s)
    work_cycles, categories = probe.ledgers.work_cycles()
    failed = min(out.attempted, out.failed + probe.checks.failed)
    return {
        "scale": scale,
        "kernel_s": list(probe.kernel_s),
        "raw_wall_s": wall,
        "wall_s": wall * scale,
        "setup_s": probe.setup_s * scale,
        "ops": out.ops,
        "attempted": out.attempted,
        "failed": failed,
        "check_messages": probe.checks.messages,
        "digest": probe.ledgers.digest(),
        "work_cycles": work_cycles,
        "categories": categories,
        "latencies": list(probe.latencies),
        "goodput": out.goodput,
        "counters": out.counters,
    }


def _virtual_metrics(sample: dict, paper_err_pp: float) -> dict:
    """End-to-end virtual metrics of one round."""
    latencies = sample["latencies"]
    return {
        "cycles_per_op": sample["work_cycles"] / sample["ops"],
        "p50_cycles": percentile(latencies, 50),
        "p99_cycles": percentile(latencies, 99),
        "goodput_rps": sample["goodput"],
        "paper_err_pp": paper_err_pp,
    }


def _layer_counters(sample: dict) -> dict:
    """Per-layer virtual metrics and modelled-component counters."""
    ops = sample["ops"]
    counters = sample["counters"]
    out = {f"cycles.{c}": sample["categories"].get(c, 0) / ops
           for c in LEDGER_CATEGORIES}
    tlb = counters.get("tlb", {})
    lookups = tlb.get("hits", 0) + tlb.get("misses", 0)
    rmp_lookups = tlb.get("rmp_hits", 0) + tlb.get("rmp_misses", 0)
    out["tlb.hit_ratio"] = tlb.get("hits", 0) / lookups if lookups else 0.0
    out["tlb.rmp_hit_ratio"] = tlb.get("rmp_hits", 0) / rmp_lookups \
        if rmp_lookups else 0.0
    out["tlb.flushes_per_op"] = tlb.get("flushes", 0) / ops
    out["enclave.exits_per_op"] = counters.get("enclave.exits", 0) / ops
    out["enclave.redirect_bytes_per_op"] = \
        counters.get("enclave.redirect_bytes", 0) / ops
    out["log.entries_per_op"] = counters.get("log.entries", 0) / ops
    for name in ("surge.queue_wait_p99_cycles", "surge.service_p99_cycles",
                 "surge.max_in_flight", "surge.peak_queue_depth",
                 "surge.arrival_lateness_cycles", "cluster.retries",
                 "cluster.quarantines", "cluster.reattestations",
                 "chaos.injected_events"):
        out[name] = counters.get(name, 0)
    out["cluster.attempts_per_request"] = \
        (ops + counters.get("cluster.retries", 0)) / ops \
        if "cluster.retries" in counters else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """Run one workload end to end; returns the child's report."""
    workload = WORKLOADS[name](seed)
    probe = Probe()
    problems: list[str] = []
    try:
        workload.install(probe)
        workload.baselines()
        warm = _measure_round(workload, probe)
        timed = []
        timed_start = time.perf_counter()
        while (len(timed) < MIN_ROUNDS or
               time.perf_counter() - timed_start < seconds):
            timed.append(_measure_round(workload, probe))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        recorder = layers.SpanRecorder()
        probe.recorder = recorder
        with recorder:
            traced = _measure_round(workload, probe)
        probe.recorder = None
    finally:
        probe.close()

    rounds = [warm] + timed + [traced]
    for index, sample in enumerate(rounds):
        if (sample["digest"], sample["latencies"]) != \
                (warm["digest"], warm["latencies"]):
            # Same seed, same answer: a round that replays differently
            # has every op counted as failed.
            sample["failed"] = sample["attempted"]
            problems.append(f"round {index} ledgers or op latencies "
                            "differ from the warm-up round")
        problems.extend(sample["check_messages"])

    walls = [s["wall_s"] for s in timed]
    setups = [s["setup_s"] for s in timed]
    rates = [s["ops"] / (s["wall_s"] - s["setup_s"]) for s in timed]
    attempted = sum(s["attempted"] for s in rounds)
    failed = sum(s["failed"] for s in rounds)
    per_round = {"setup_s": setups, "wall_s": walls, "sim_ops_per_s": rates}
    end_to_end = {metric: median(values)
                  for metric, values in per_round.items()}
    end_to_end["peak_rss_mb"] = peak_rss_mb
    end_to_end.update(_virtual_metrics(warm, workload.paper_err_pp))
    end_to_end["ok_ratio"] = (attempted - failed) / attempted

    per_layer = layers.layer_metrics(recorder, traced["scale"],
                                     traced["wall_s"], median(walls))
    coverage = per_layer["trace.coverage"]
    if coverage < MIN_COVERAGE:
        problems.append(f"layers cover {coverage:.1%} of the traced round "
                        f"(< {MIN_COVERAGE:.0%})")
    per_layer.update(_layer_counters(warm))

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "loop": workload.loop,
        "sizes": workload.sizes,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "iqr": {metric: iqr(values) for metric, values in per_round.items()},
        "end_to_end": {m.name: end_to_end[m.name] for m in END_TO_END},
        "per_layer": {m.name: per_layer[m.name] for m in PER_LAYER},
        "rounds": {
            "timed": len(timed),
            "wall_s": walls,
            "raw_wall_s": [s["raw_wall_s"] for s in timed],
            "kernel_s": [s["kernel_s"] for s in timed],
            "setup_s": setups,
            "sim_ops_per_s": rates,
            "ops": warm["ops"],
            "digest": warm["digest"],
        },
    }
