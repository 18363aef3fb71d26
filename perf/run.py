"""veil-bench: one outside-in benchmark for both clocks.

Usage (from the repository root)::

    python3 perf/run.py                       # all four workloads
    python3 perf/run.py --workload fleet-surge --seed 3 --seconds 10
    python3 perf/run.py --json runs/parent-1.json

Each workload runs in a fresh child process, one at a time.  The child
measures host time (what the simulator costs) and virtual cycles (the
model's answer), checks every output, and reports back; this process
prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` puts the end-to-end metrics in that object, ``--trace 1``
the per-layer ones; without ``--trace`` it holds both.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from metrics import BY_NAME, WORKLOAD_NAMES

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"

#: Per-workload child time limit (the whole command must end in 180 s).
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 6


def _child_env() -> dict:
    """Defaults only: no ``VEIL_*`` overrides, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VEIL_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(name: str, seed: int, seconds: float) -> dict:
    """Run one workload in a fresh interpreter and return its report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", name, "--seed", str(seed),
               "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf: workload {name} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(report: dict) -> None:
    name = report["workload"]
    for metric, value in report["end_to_end"].items():
        line = f"{name} {metric} {_fmt(value)} {BY_NAME[metric].unit}"
        if metric in report["iqr"]:
            line += f" (iqr {_fmt(report['iqr'][metric])})"
        print(line)
    for metric, value in report["per_layer"].items():
        print(f"{name} {metric} {_fmt(value)} {BY_NAME[metric].unit}")
    for problem in report["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def _result_line(reports: list[dict], trace: int | None) -> dict:
    """The final JSON object (names are prefixed when several ran)."""
    sections = {0: ("end_to_end",), 1: ("per_layer",),
                None: ("end_to_end", "per_layer")}[trace]
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for section in sections:
            for metric, value in report[section].items():
                metrics[prefix + metric] = {"value": value,
                                            "unit": BY_NAME[metric].unit}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds arrival plans and fault schedules")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="minimum timed host seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full reports here")
    parser.add_argument("--child", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        import harness  # imports repro: only the child has src/ on its path
        report = harness.run_workload(args.child, args.seed, args.seconds)
        print(json.dumps(report))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    reports = []
    for name in names:
        report = _run_child(name, args.seed, args.seconds)
        _print_report(report)
        reports.append(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "reports": reports}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(_result_line(reports, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
