"""Byte-identical traces: the determinism contract of veil-trace.

Because the tracer is clocked by the simulator's cycle ledger (virtual
time) and never records wall-clock or random data, running the same
workload twice on fresh machines must produce *byte-identical* Chrome
trace exports and metrics dumps.
"""

import json

import pytest

from repro.trace import Tracer, dumps_chrome_trace
from repro.workloads.trace_demo import run_trace_workload_system


def export_and_metrics(workload: str) -> tuple[str, str]:
    tracer, _system = run_trace_workload_system(workload, tracer=Tracer())
    return (dumps_chrome_trace(tracer),
            json.dumps(tracer.metrics.dump(), sort_keys=True))


@pytest.mark.parametrize("workload", ["switch", "syscalls"])
def test_repeat_runs_are_byte_identical(workload):
    first_trace, first_metrics = export_and_metrics(workload)
    second_trace, second_metrics = export_and_metrics(workload)
    assert first_trace == second_trace
    assert first_metrics == second_metrics


def test_switch_and_syscalls_differ_from_each_other():
    switch_trace, _ = export_and_metrics("switch")
    syscalls_trace, _ = export_and_metrics("syscalls")
    assert switch_trace != syscalls_trace


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown trace workload"):
        run_trace_workload_system("nope")
