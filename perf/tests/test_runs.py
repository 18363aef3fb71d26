"""Whole-benchmark behaviour on shrunken workloads, plus one real CLI run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from conftest import PERF, ROOT

import metrics
import run

VIRTUAL = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER
           if m.clock in ("virtual", "count")]


def _virtual(report: dict) -> dict:
    values = {**report["end_to_end"], **report["per_layer"]}
    return {name: values[name] for name in VIRTUAL}


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_virtual_metrics_repeat_exactly(small, workload):
    first = small.run_workload(workload, seed=1, seconds=0)
    second = small.run_workload(workload, seed=1, seconds=0)
    assert first["correct"], first["problems"]
    assert first["failed"] == 0
    assert first["end_to_end"]["ok_ratio"] == 1.0
    assert _virtual(first) == _virtual(second)
    assert first["rounds"]["digest"] == second["rounds"]["digest"]
    assert set(first["end_to_end"]) == {m.name for m in metrics.END_TO_END}
    assert set(first["per_layer"]) == {m.name for m in metrics.PER_LAYER}
    assert first["per_layer"]["trace.coverage"] >= small.MIN_COVERAGE


def test_wrong_output_counts_as_failed_op(small, monkeypatch):
    import workloads
    monkeypatch.setattr(workloads, "SWEEP_EXPECTED",
                        workloads.SWEEP_EXPECTED + 1)
    report = small.run_workload("enclave-syscalls", seed=1, seconds=0)
    assert not report["correct"]
    assert report["failed"] > 0
    assert report["end_to_end"]["ok_ratio"] < 1.0
    assert any("sweep" in problem for problem in report["problems"])


@pytest.mark.parametrize("workload", ["fleet-surge", "fleet-chaos"])
def test_seed_changes_the_schedule(small, workload):
    one = small.run_workload(workload, seed=1, seconds=0)
    two = small.run_workload(workload, seed=2, seconds=0)
    assert one["correct"] and two["correct"], two["problems"]
    assert one["rounds"]["digest"] != two["rounds"]["digest"]


def test_cli_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "audit-log",
         "--seconds", "0", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, name, _value, unit = line.split()[:4]
        assert workload == "audit-log"
        printed[name] = unit
    expected = {m.name: m.unit for m in metrics.END_TO_END + metrics.PER_LAYER}
    assert printed == expected

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        expected

    report = json.loads(out.read_text())["reports"]
    end_to_end = run._result_line(report, 0)["metrics"]
    per_layer = run._result_line(report, 1)["metrics"]
    assert list(end_to_end) == [m.name for m in metrics.END_TO_END]
    assert set(per_layer) == {m.name for m in metrics.PER_LAYER}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "audit-log",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
