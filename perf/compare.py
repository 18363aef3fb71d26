"""Compare benchmark runs of two commits, or summarize one commit's runs.

Usage::

    python3 perf/compare.py parent-*.json -- change-*.json
    python3 perf/compare.py --summary runs/*.json > perf/baseline.json

Each file is a ``perf/run.py --json`` report.  Runs are paired in the
order given (parent 1 with change 1, ...); run the pairs alternating
which side goes first.  For every (workload, end-to-end metric):

``gain``        at least 10 pairs, the change wins at least 9/10 of them
                (ties count for neither) and the medians differ by more
                than the parent runs' interquartile range;
``unresolved``  either side's spread (IQR over median) is wider than the
                bound, and not every change run beats every parent run;
``worse``       the change's median is worse than the parent's by more
                than the metric's bound;
``same``        a virtual metric that is identical in every pair;
``ok``          anything else: within the bound.

Exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, iqr, median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[str]) -> dict[str, list[dict]]:
    """``{workload: [report, ...]}`` over the run files, in file order."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for report in json.load(fh)["reports"]:
                runs.setdefault(report["workload"], []).append(report)
    return runs


def _values(reports: list[dict], metric) -> list[float]:
    return [report["end_to_end"][metric.name] for report in reports]


def _better(metric, a: float, b: float) -> bool:
    """Whether ``a`` is strictly better than ``b`` for ``metric``."""
    return a < b if metric.better == "lower" else a > b


def verdict(metric, parent: list[float], change: list[float]) -> tuple:
    """``(verdict, relative change of the median)`` for one metric."""
    p_med, c_med = median(parent), median(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    if metric.clock != "host" and parent == change:
        return "same", rel
    pairs = list(zip(parent, change))
    wins = sum(_better(metric, c, p) for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and
            _better(metric, c_med, p_med) and
            abs(c_med - p_med) > iqr(parent)):
        return "gain", rel
    spread = max(iqr(parent) / p_med if p_med else 0.0,
                 iqr(change) / c_med if c_med else 0.0)
    beats_all = all(_better(metric, c, p) for c in change for p in parent)
    if spread > metric.bound and not beats_all:
        return "unresolved", rel
    worse_by = rel if metric.better == "lower" else -rel
    return ("worse" if worse_by > metric.bound else "ok"), rel


def compare(parent: dict, change: dict) -> int:
    """Print one row per workload; return the exit status."""
    failed = False
    print(f"gain needs >= {MIN_PAIRS} pairs and {WIN_SHARE:.0%} wins")
    for workload, parent_runs in parent.items():
        change_runs = change.get(workload, [])
        if len(change_runs) != len(parent_runs):
            print(f"{workload:17s} {len(parent_runs)} parent runs but "
                  f"{len(change_runs)} change runs; pair them one to one")
            failed = True
            continue
        cells = []
        for metric in END_TO_END:
            result, rel = verdict(metric, _values(parent_runs, metric),
                                  _values(change_runs, metric))
            failed |= result == "worse"
            cells.append(f"{metric.name} {rel:+.1%} {result}")
        correct = all(r["correct"] for r in parent_runs + change_runs)
        print(f"{workload:17s} {len(parent_runs)} pairs | " +
              " | ".join(cells) +
              ("" if correct else " | OUTPUT CHECKS FAILED"))
        failed |= not correct
    return 1 if failed else 0


def summary(runs: dict) -> dict:
    """Median, quartiles and spread of every end-to-end metric."""
    out = {}
    for workload, reports in runs.items():
        rows = {}
        for metric in END_TO_END:
            values = _values(reports, metric)
            q1, q3 = quartiles(values)
            med = median(values)
            rows[metric.name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": metric.bound,
            }
        out[workload] = {"seeds": [r["seed"] for r in reports],
                         "seconds": reports[0]["seconds"],
                         "metrics": rows}
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--summary"]:
        print(json.dumps(summary(load(argv[1:])), indent=1))
        return 0
    if "--" not in argv:
        print(__doc__)
        return 2
    cut = argv.index("--")
    return compare(load(argv[:cut]), load(argv[cut + 1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
