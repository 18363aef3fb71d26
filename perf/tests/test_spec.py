"""BENCHMARK.json agrees with the metric tables and stays in shape."""

from __future__ import annotations

import json
import re

from conftest import ROOT

import metrics
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_command():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert 1 <= spec["run_seconds"] <= 60


def test_counts_and_names():
    spec = _spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_workloads_match_the_code():
    spec = _spec()
    names = [entry["name"] for entry in spec["workloads"]]
    assert tuple(names) == metrics.WORKLOAD_NAMES
    assert set(names) == set(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metrics_match_the_tables():
    spec = _spec()
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


def test_setup_bound_is_the_largest():
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(0 < bound <= 0.25 for bound in bounds.values())


def test_committed_baseline_covers_every_metric():
    with open(ROOT / "perf" / "baseline.json", encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert set(baseline) == set(metrics.WORKLOAD_NAMES)
    for entry in baseline.values():
        assert len(entry["seeds"]) >= 10
        rows = entry["metrics"]
        assert set(rows) == {m.name for m in metrics.END_TO_END}
        for metric in metrics.END_TO_END:
            if metric.name != "setup_s":
                assert rows[metric.name]["spread"] <= metric.bound
