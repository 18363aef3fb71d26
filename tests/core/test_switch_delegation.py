"""Integration tests: domain switching mechanics and delegation glue."""

import pytest

from repro.hw import VMPL_MON, VMPL_SER, VMPL_UNT
from repro.errors import CvmHalted, SecurityViolation


class TestSwitchMechanics:
    def test_round_trip_preserves_kernel_context(self, veil):
        core = veil.boot_core
        veil.gateway.call_monitor(core, {"op": "ping"})
        assert core.vmpl == VMPL_UNT
        assert core.regs.cr3 == veil.kernel.kernel_table.root_ppn

    def test_switch_counter_increments(self, veil):
        before = veil.gateway.switch_count
        veil.gateway.call_monitor(veil.boot_core, {"op": "ping"})
        assert veil.gateway.switch_count == before + 1

    def test_switch_cost_is_paper_constant(self, veil):
        core = veil.boot_core
        veil.gateway.call_monitor(core, {"op": "ping"})   # warm paths
        before = veil.machine.ledger.category("domain_switch")
        veil.gateway.call_monitor(core, {"op": "ping"})
        charged = veil.machine.ledger.category("domain_switch") - before
        assert charged == 2 * veil.machine.cost.domain_switch

    def test_service_call_runs_at_domser(self, veil):
        observed = {}

        def spy(core, request):
            observed["vmpl"] = core.vmpl
            return {"status": "ok"}

        veil.veilmon.ser_handlers["spy"] = spy
        veil.gateway.call_service(veil.boot_core, {"op": "spy"})
        assert observed["vmpl"] == VMPL_SER

    def test_monitor_call_runs_at_dommon(self, veil):
        observed = {}

        def spy(core, request):
            observed["vmpl"] = core.vmpl
            return {"status": "ok"}

        veil.veilmon._handlers["spy"] = spy
        veil.gateway.call_monitor(veil.boot_core, {"op": "spy"})
        assert observed["vmpl"] == VMPL_MON

    def test_ser_can_call_monitor(self, veil):
        """Nested switch: OS -> SER -> MON -> SER -> OS."""
        outcome = {}

        def ser_handler(core, request):
            reply = veil.veilmon.ser_call_monitor(core, {"op": "ping",
                                                         "payload": 9})
            outcome["mon_reply"] = reply
            return {"status": "ok"}

        veil.veilmon.ser_handlers["nested"] = ser_handler
        veil.gateway.call_service(veil.boot_core, {"op": "nested"})
        assert outcome["mon_reply"]["echo"] == 9
        assert veil.boot_core.vmpl == VMPL_UNT

    def test_denied_reply_raises_for_caller(self, veil):
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core, {
                "op": "get_protected_map"})


class TestDelegationPaths:
    def test_share_page_goes_through_monitor(self, veil):
        """Kernel page-state changes trigger the PVALIDATE delegation."""
        core = veil.boot_core
        before = veil.veilmon.request_count
        frame = veil.kernel.mm.alloc_frame("bounce")
        with veil.kernel.kernel_context(core) as kcore:
            veil.kernel.share_page_with_host(kcore, frame)
        assert veil.veilmon.request_count > before
        assert veil.machine.rmp.entry(frame).shared

    def test_accept_page_revalidates_via_monitor(self, veil):
        core = veil.boot_core
        frame = veil.kernel.mm.alloc_frame("bounce")
        with veil.kernel.kernel_context(core) as kcore:
            veil.kernel.share_page_with_host(kcore, frame)
            veil.kernel.accept_page_from_host(kcore, frame)
        ent = veil.machine.rmp.entry(frame)
        assert ent.assigned and ent.validated and not ent.shared

    def test_hotplugged_core_can_run_syscalls(self, veil):
        core = veil.boot_core
        veil.kernel.hotplug_vcpu(core, 1)
        second = veil.machine.core(1)
        veil.kernel.attach_ghcb(second)
        proc = veil.kernel.create_process("on-core-1")
        pid = veil.kernel.syscall(second, proc, "getpid")
        assert pid == proc.pid

    def test_monitor_requests_work_from_second_core(self, veil):
        core = veil.boot_core
        veil.kernel.hotplug_vcpu(core, 1)
        second = veil.machine.core(1)
        reply = veil.gateway.call_monitor(second, {"op": "ping",
                                                   "payload": "core1"})
        assert reply["echo"] == "core1"
        assert second.vmpl == VMPL_UNT
