"""Span accounting, paper errors and the compare rule, on small inputs."""

from __future__ import annotations

import json
import time

import pytest

import compare
import layers
import metrics
import paper


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_every_boundary_exists():
    targets = layers.resolve_targets()
    assert {layer for layer, _cls, _method in targets} == set(layers.LAYERS)
    assert set(layers.LAYERS) == set(metrics.HOST_LAYERS)


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.setitem(layers.BOUNDARIES, "hw", (
        ("repro.hw.vcpu", "VirtualCpu", ("no_such_method",)),))
    with pytest.raises(layers.LayerTargetMissing, match="no_such_method"):
        layers.resolve_targets()


def test_self_time_excludes_nested_spans(monkeypatch):
    monkeypatch.setattr(layers, "BOUNDARIES", {
        "hw": ((__name__, "_Toy", ("inner",)),),
        "core": ((__name__, "_Toy", ("outer",)),)})
    monkeypatch.setattr(layers, "LAYERS", ("hw", "core"))
    original = _Toy.__dict__["outer"]
    with layers.SpanRecorder() as recorder:
        _Toy().outer()
    assert _Toy.__dict__["outer"] is original
    assert recorder.calls == {"hw": 1, "core": 1}
    assert 0.025 <= recorder.self_s["hw"] < 0.045
    assert 0.015 <= recorder.self_s["core"] < 0.03


def test_paper_error_is_mean_absolute_gap():
    measured = {("fig5", "GZip"): 5.9, ("cs1", "load"): 5.2}
    assert paper.error_pp(measured) == pytest.approx((1.0 + 0.5) / 2)
    with pytest.raises(KeyError):
        paper.error_pp({("fig5", "Redis"): 1.0})


def _metric(name):
    return metrics.BY_NAME[name]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    rate = _metric("sim_ops_per_s")
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [p * 1.2 for p in parent]
    assert compare.verdict(rate, parent, change)[0] == "gain"
    change[0] = change[1] = 90.0      # only 8 of 10 wins
    assert compare.verdict(rate, parent, change)[0] != "gain"


def test_regressions_beyond_the_bound_are_worse_or_unresolved():
    wall = _metric("wall_s")
    parent = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(wall, parent, [1.3] * 5)[0] == "worse"
    assert compare.verdict(wall, parent, [1.02] * 5)[0] == "ok"
    noisy = [0.6, 1.5, 0.7, 1.6, 1.0]
    assert compare.verdict(wall, parent, noisy)[0] == "unresolved"


def test_identical_virtual_metrics_are_same():
    cycles = _metric("cycles_per_op")
    assert compare.verdict(cycles, [5.0, 6.0], [5.0, 6.0])[0] == "same"
    assert compare.verdict(cycles, [5.0] * 3, [6.0] * 3)[0] == "worse"


def _run_file(tmp_path, name, workload, seed, rate):
    values = {m.name: 1.0 for m in metrics.END_TO_END}
    values["sim_ops_per_s"] = rate
    report = {"workload": workload, "seed": seed, "seconds": 10,
              "correct": True, "end_to_end": values}
    path = tmp_path / name
    path.write_text(json.dumps({"reports": [report]}))
    return str(path)


def test_compare_groups_runs_by_workload(tmp_path, capsys):
    parent = [_run_file(tmp_path, f"p{i}.json", "audit-log", i, 100.0 + i)
              for i in range(10)]
    change = [_run_file(tmp_path, f"c{i}.json", "audit-log", i, 150.0 + i)
              for i in range(10)]
    assert compare.main(parent + ["--"] + change) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("audit-log") and "sim_ops_per_s +" in row
    assert "gain" in row and "worse" not in row
    summary = compare.summary(compare.load(parent))
    assert summary["audit-log"]["seeds"] == list(range(10))
    assert summary["audit-log"]["metrics"]["sim_ops_per_s"]["median"] == \
        pytest.approx(104.5)
