"""Cross-layer instrumentation: every layer shows up in one trace.

One booted system + the ``syscalls`` demo workload must yield spans
from the hardware (VMGEXIT/RMPADJUST), the hypervisor's GHCB op
dispatch, the kernel's syscall table, VeilMon's monitor/service
dispatch, and the audit sink — all attributed to (vcpu, VMPL) tracks
and all costing zero ledger cycles.
"""

import pytest

from repro.core import VeilConfig, boot_veil_system
from repro.hv import Hypervisor
from repro.hv.hypervisor import EXIT_LOG_CAPACITY
from repro.hw import SevSnpMachine
from repro.hw.ghcb import Ghcb
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.trace import NullMetrics, NullTracer, Tracer
from repro.workloads.trace_demo import run_trace_workload_system


@pytest.fixture(scope="module")
def traced_run():
    return run_trace_workload_system("syscalls", tracer=Tracer())[0]


@pytest.fixture(scope="module")
def traced_switch():
    return run_trace_workload_system("switch", tracer=Tracer())[0]


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

    def test_fleet_request_path_builds_no_span_or_metric(self):
        """A sealed fleet request (route, fabric hops, serve, two audited
        syscalls with their VeilS-LOG round trips) records nothing."""
        from repro.cluster import ClusterConfig, ClusterFleet, \
            request_payload
        fleet = ClusterFleet(ClusterConfig(replicas=2, requests=4))
        fleet.attest_all()
        refusing = RefusingTracer()
        fleet.frontend.tracer = fleet.net.tracer = refusing
        for replica in fleet.replicas.values():
            replica.system.machine.tracer = refusing
        for index in range(4):
            reply = fleet.frontend.request(
                request_payload("memcached", index))
            assert reply["status"] == "ok"

    def test_enclave_redirect_path_builds_no_span_or_metric(self):
        """Redirected syscalls, a batch flush and a VeilS-ENC service
        request from a launched enclave record nothing."""
        from repro.enclave import EnclaveHost, build_test_binary
        system = boot_veil_system(VeilConfig(
            memory_bytes=32 * 1024 * 1024, num_cores=2,
            log_storage_pages=64))
        host = EnclaveHost(system, build_test_binary("quiet",
                                                     heap_pages=8))
        runtime = host.launch()
        system.machine.tracer = runtime.tracer = RefusingTracer()
        stack_vaddr = system.integration.enclaves[
            host.enclave_id].layout["stack"][0]

        def body(libc):
            fd = libc.open("/tmp/quiet", O_CREAT | O_RDWR)
            assert libc.write(fd, b"hello") == 5
            libc.lseek(fd, 0, 0)
            assert libc.read(fd, 5) == b"hello"
            region = libc.mmap(4096)
            libc.munmap(region, 4096)
            with libc.batch() as batch:
                batch.write(fd, b"!")
            libc.close(fd)
            return libc.mprotect_enclave(stack_vaddr, 1, writable=False,
                                         executable=False)

        assert host.run(body) == {"status": "ok"}
        assert runtime.syscall_count == 8


class TestExitLog:
    def test_hypervisor_exit_log_stays_bounded(self):
        """The hypervisor keeps the tags of the last EXIT_LOG_CAPACITY
        exits; the core still counts every exit it took."""
        machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=1)
        hv = Hypervisor(machine)
        core = machine.core(0)
        core.hw_enter(hv.launch(b"image"))
        machine.rmp.bulk_assign_validate()
        ghcb = Ghcb(machine.frames.alloc())
        machine.rmp.share(ghcb.ppn)
        core.regs.cpl = 0
        core.wrmsr_ghcb(ghcb.gpa)
        for _ in range(EXIT_LOG_CAPACITY + 50):
            ghcb.write_message(machine.memory, {
                "op": "io", "device": "console", "data_hex": "00"})
            core.vmgexit()
        assert len(hv.exit_log) == EXIT_LOG_CAPACITY
        assert set(hv.exit_log) == {"vmgexit:io"}
        assert core.exit_count == EXIT_LOG_CAPACITY + 50
