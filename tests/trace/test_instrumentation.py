"""Cross-layer instrumentation: every layer shows up in one trace.

One booted system + the ``syscalls`` demo workload must yield spans
from the hardware (VMGEXIT/RMPADJUST), the hypervisor's GHCB op
dispatch, the kernel's syscall table, VeilMon's monitor/service
dispatch, and the audit sink — all attributed to (vcpu, VMPL) tracks
and all costing zero ledger cycles.
"""

import pytest

from repro.core import VeilConfig, boot_veil_system
from repro.hv.hypervisor import EXIT_LOG_CAPACITY, ExitLog
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.trace import NullMetrics, NullTracer, Tracer
from repro.workloads.trace_demo import run_trace_workload


@pytest.fixture(scope="module")
def traced_run():
    return run_trace_workload("syscalls", tracer=Tracer())


@pytest.fixture(scope="module")
def traced_switch():
    return run_trace_workload("switch", tracer=Tracer())


class TestLayerCoverage:
    def test_hw_layer_spans(self, traced_run):
        assert traced_run.spans("hw", "VMGEXIT")
        assert traced_run.spans("hw", "RMPADJUST_SWEEP")
        assert traced_run.spans("hw", "PVALIDATE_SWEEP")

    def test_hv_op_dispatch_spans(self, traced_run):
        switches = traced_run.spans("hv", "op:domain_switch")
        assert switches
        # The hypervisor sees the *exiting* VMPL and the target arg.
        assert all(s.vmpl >= 0 for s in switches)
        assert all("target_vmpl" in s.args_dict() for s in switches)

    def test_syscall_spans_carry_pid(self, traced_run):
        opens = traced_run.spans("syscall", "open")
        assert len(opens) >= 4
        assert all(s.pid > 0 for s in opens)

    def test_monitor_spans(self, traced_switch):
        pings = traced_switch.spans("mon", "request:ping")
        assert len(pings) == 16
        assert all(s.vmpl == 0 for s in pings)     # DomMON = VMPL0

    def test_service_spans(self, traced_run):
        assert traced_run.spans("ser")        # DomSER dispatch
        appends = traced_run.spans("service", "veils-log:append")
        assert appends
        assert all(s.vmpl == 1 for s in appends)   # DomSER = VMPL1

    def test_audit_instants(self, traced_run):
        assert traced_run.instants("audit", "append:open")

    def test_vmgexit_span_duration_is_the_paper_cost(self, traced_run):
        # 3000 (VMGEXIT) + 4135 (VMENTER) + hv dispatch == the round
        # trip wrapped by the hw span; every one costs >= 7135 cycles.
        durations = {s.dur for s in traced_run.spans("hw", "VMGEXIT")}
        assert durations and all(d >= 7135 for d in durations)


class TestMetricsFeed:
    def test_switch_pairs_counted(self, traced_run):
        switches = traced_run.metrics.counters_named("switch")
        assert switches.get("DomUNT->DomSER", 0) > 0
        assert switches.get("DomSER->DomUNT", 0) > 0

    def test_syscall_counters_match_spans(self, traced_run):
        assert traced_run.metrics.counter("syscall", "open") == \
            len(traced_run.spans("syscall", "open"))

    def test_vmgexit_op_counters(self, traced_run):
        assert traced_run.metrics.counter(
            "vmgexit", "domain_switch") > 0


class TestZeroPerturbation:
    def test_cycle_totals_identical_with_and_without_tracing(self):
        def total(tracer):
            system = boot_veil_system(VeilConfig(
                memory_bytes=32 * 1024 * 1024, num_cores=2,
                log_storage_pages=64, tracer=tracer))
            core = system.boot_core
            proc = system.kernel.create_process("perturb")
            fd = system.kernel.syscall(core, proc, "open", "/tmp/f",
                                       O_CREAT | O_RDWR)
            system.kernel.syscall(core, proc, "close", fd)
            return system.machine.ledger.total

        untraced = total(None)
        tracer = Tracer()
        traced = total(tracer)
        assert traced == untraced
        assert tracer.recorded > 0


class _RefusingMetrics(NullMetrics):
    def count(self, name, key=None, n=1):
        raise AssertionError(f"metric {name}:{key} counted, tracing off")


class RefusingTracer(NullTracer):
    """A disabled tracer that fails the test if anything records into it."""

    metrics = _RefusingMetrics()

    def span(self, category, name, **kwargs):
        raise AssertionError(f"span {category}:{name} built, tracing off")

    def instant(self, category, name, **kwargs):
        raise AssertionError(f"instant {category}:{name} built, "
                             "tracing off")


class TestTracingOff:
    def test_round_trips_build_no_span_or_metric(self):
        system = boot_veil_system(VeilConfig(
            memory_bytes=32 * 1024 * 1024, num_cores=2,
            log_storage_pages=64))
        system.integration.enable_protected_logging()
        system.machine.tracer = RefusingTracer()
        core = system.boot_core
        assert system.gateway.call_service(core, {
            "op": "log_append", "record_hex": "00"}) == {"status": "ok"}
        assert system.gateway.call_monitor(core, {
            "op": "ping", "payload": 1}) == {"status": "ok", "echo": 1}


class TestExitLog:
    def test_bounded_with_compat_queries(self):
        log = ExitLog(capacity=4)
        for i in range(10):
            log.append(f"vmgexit:op{i}")
        assert len(log) == 4
        assert log.total == 10
        assert "vmgexit:op9" in log
        assert "vmgexit:op0" not in log
        assert log.recent(2) == ["vmgexit:op8", "vmgexit:op9"]
        assert log[-1] == "vmgexit:op9"
        assert log[-2:] == ["vmgexit:op8", "vmgexit:op9"]
        assert list(log) == ["vmgexit:op6", "vmgexit:op7",
                             "vmgexit:op8", "vmgexit:op9"]

    def test_hypervisor_exit_log_stays_bounded(self, traced_run):
        # module-scoped system already ran a workload; grow past the cap
        # via direct appends to prove the deque ceiling holds.
        log = ExitLog()
        for i in range(EXIT_LOG_CAPACITY + 50):
            log.append(f"e{i}")
        assert len(log) == EXIT_LOG_CAPACITY
        assert log.total == EXIT_LOG_CAPACITY + 50
