"""Exporters: Chrome trace-event JSON, validator, and text summary.

The JSON exporter emits the Chrome trace-event format (the "JSON Object
Format" with a top-level ``traceEvents`` array) that both Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly.  Track
layout mirrors the simulator's attribution model: one *process* per
virtual CPU and one *thread* per VMPL, so a domain switch reads as
activity hopping between the DomUNT / DomMON / DomSER / DomENC tracks
of the same core.

Timestamps: the format's ``ts``/``dur`` unit is nominally microseconds;
we write raw virtual **cycles** (1 "us" == 1 cycle).  Durations shown in
the viewer are therefore cycle counts — exactly the quantity the paper's
evaluation reports — and remain integers, which keeps exports
byte-identical across runs.
"""

from __future__ import annotations

import json

from ..errors import SimulationError
from .tracer import PHASE_INSTANT, PHASE_SPAN, Tracer

#: Display names for the VMPL tracks (Veil's domain naming).
VMPL_TRACK_NAMES = {
    0: "VMPL0 DomMON",
    1: "VMPL1 DomSER",
    2: "VMPL2 DomENC",
    3: "VMPL3 DomUNT",
}

#: pid/tid used for events with no core / VMPL attribution.
UNATTRIBUTED_TRACK = 99


def _track(value: int) -> int:
    """Map an attribution value onto a non-negative pid/tid."""
    return UNATTRIBUTED_TRACK if value < 0 else value


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer's ring buffer as a Chrome trace-event object."""
    events: list[dict] = []
    tracks: set[tuple[int, int]] = set()
    for event in tracer.events:
        tracks.add((_track(event.vcpu), _track(event.vmpl)))

    # Metadata events first: name each (vcpu, VMPL) track.
    for vcpu in sorted({pid for pid, _ in tracks}):
        name = ("unattributed" if vcpu == UNATTRIBUTED_TRACK
                else f"vcpu{vcpu}")
        events.append({"ph": "M", "name": "process_name", "pid": vcpu,
                       "tid": 0, "args": {"name": name}})
    for vcpu, vmpl in sorted(tracks):
        name = VMPL_TRACK_NAMES.get(vmpl, "unattributed")
        events.append({"ph": "M", "name": "thread_name", "pid": vcpu,
                       "tid": vmpl, "args": {"name": name}})

    for event in tracer.events:
        record = {
            "ph": event.phase,
            "cat": event.category,
            "name": event.name,
            "pid": _track(event.vcpu),
            "tid": _track(event.vmpl),
            "ts": event.ts,
            "args": event.args_dict(),
        }
        if event.phase == PHASE_SPAN:
            record["dur"] = event.dur
        elif event.phase == PHASE_INSTANT:
            record["s"] = "t"          # thread-scoped instant
        if event.pid >= 0:
            record["args"]["pid"] = event.pid
        events.append(record)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual-cycles",
            "dropped_events": tracer.dropped,
            "recorded_events": tracer.recorded,
            "metrics": tracer.metrics.dump(),
        },
    }


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize deterministically (sorted keys, no whitespace)."""
    return json.dumps(chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Write the Chrome trace-event JSON for ``tracer`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_chrome_trace(tracer))
        fh.write("\n")


def validate_chrome_trace(obj) -> list[str]:
    """Check ``obj`` against the Chrome trace-event schema.

    Returns a list of problems (empty when valid).  This is the subset
    of the format the exporter produces — object form with
    ``traceEvents``, each event carrying well-typed ``ph``/``name``/
    ``pid``/``tid``/``ts`` and a ``dur`` on complete events.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer '{field}'")
        if phase == "M":
            continue                   # metadata carries no timestamp
        if not isinstance(event.get("ts"), int):
            problems.append(f"{where}: missing integer 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(
                    f"{where}: complete event needs integer 'dur' >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


def render_summary(tracer: Tracer, top: int = 10) -> str:
    """Human-readable per-operation summary (top-N by total cycles)."""
    if top < 0:
        raise SimulationError(f"top must be at least 0, got {top}")
    rows = []
    for key in tracer.metrics.histograms:
        name, _, op = key.partition("/")
        if name != "cycles":
            continue
        hist = tracer.metrics.histograms[key]
        rows.append((hist.total, op, hist))
    rows.sort(key=lambda r: (-r[0], r[1]))

    lines = [
        "veil-trace summary",
        f"  events recorded: {tracer.recorded:,} "
        f"(buffered {len(tracer.events):,}, dropped {tracer.dropped:,})",
        "",
        f"  {'span':<28} {'count':>8} {'total cyc':>14} "
        f"{'mean cyc':>12} {'max cyc':>10}",
    ]
    for total, op, hist in rows[:top]:
        lines.append(f"  {op:<28} {hist.count:>8,} {total:>14,} "
                     f"{hist.mean:>12,.1f} {hist.max:>10,}")
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more span kinds")

    switches = tracer.metrics.counters_named("switch")
    if switches:
        lines.append("")
        lines.append(f"  {'domain switch':<28} {'count':>8}")
        for pair in sorted(switches):
            lines.append(f"  {pair:<28} {switches[pair]:>8,}")

    # Software-TLB counters (veil-turbo), present when the machine
    # published them after the run (the CLI does this post-export so the
    # Chrome trace stays identical across VEIL_TLB modes).
    tlb = tracer.metrics.counters_named("tlb")
    if tlb:
        lines.append("")
        lines.append(f"  {'software TLB':<28} {'count':>8}")
        for name in sorted(tlb):
            lines.append(f"  {name:<28} {tlb[name]:>8,}")
        hits, misses = tlb.get("hits", 0), tlb.get("misses", 0)
        if hits + misses:
            lines.append(f"  {'(translation hit rate)':<28} "
                         f"{hits / (hits + misses):>8.1%}")
        rhits = tlb.get("rmp_hits", 0)
        rmisses = tlb.get("rmp_misses", 0)
        if rhits + rmisses:
            lines.append(f"  {'(rmp verdict hit rate)':<28} "
                         f"{rhits / (rhits + rmisses):>8.1%}")
    return "\n".join(lines)
