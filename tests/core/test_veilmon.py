"""Integration tests: VeilMon on a booted Veil CVM."""

import pytest

from repro.hw import VMPL_ENC, VMPL_MON, VMPL_SER, VMPL_UNT
from repro.errors import SecurityViolation
from repro.hw.rmp import Access


class TestBootState:
    def test_kernel_runs_at_domunt(self, veil):
        assert veil.boot_core.vmpl == VMPL_UNT

    def test_replicated_instances_for_boot_vcpu(self, veil):
        for vmpl in (VMPL_MON, VMPL_SER, VMPL_UNT):
            assert (0, vmpl) in veil.veilmon.vmsas
            assert (0, vmpl) in veil.hv.vmsas

    def test_vmsa_vmpls_permanent_and_correct(self, veil):
        for (vcpu, vmpl), vmsa in veil.veilmon.vmsas.items():
            assert vmsa.vmpl == vmpl
            assert vmsa.vcpu_id == vcpu

    def test_monitor_memory_protected_from_domunt(self, veil):
        rmp = veil.machine.rmp
        for ppn in veil.veilmon.image_ppns[:4]:
            ent = rmp.peek(ppn)
            assert not ent.allows(VMPL_UNT, Access.READ)
            assert not ent.allows(VMPL_SER, Access.READ)

    def test_service_memory_protected_from_domunt_only(self, veil):
        rmp = veil.machine.rmp
        for ppn in veil.kci.image_ppns[:4]:
            ent = rmp.peek(ppn)
            assert not ent.allows(VMPL_UNT, Access.READ)
            assert ent.allows(VMPL_SER, Access.READ)

    def test_ordinary_memory_fully_granted_to_domunt(self, veil):
        frame = veil.kernel.mm.alloc_frame("probe")
        ent = veil.machine.rmp.peek(frame)
        assert ent.allows(VMPL_UNT, Access.all())

    def test_domenc_starts_with_no_permissions(self, veil):
        frame = veil.kernel.mm.alloc_frame("probe")
        assert not veil.machine.rmp.peek(frame).allows(VMPL_ENC,
                                                       Access.READ)

    def test_boot_delta_dominated_by_rmpadjust(self, veil):
        delta = veil.veil_boot_delta
        assert delta.category("rmpadjust") / delta.total > 0.7


class TestMonitorRequests:
    def test_ping_round_trip_returns_to_domunt(self, veil):
        core = veil.boot_core
        reply = veil.gateway.call_monitor(core, {"op": "ping",
                                                 "payload": "x"})
        assert reply == {"status": "ok", "echo": "x"}
        assert core.vmpl == VMPL_UNT

    def test_unknown_op_reported(self, veil):
        reply = veil.gateway.call_monitor(veil.boot_core,
                                          {"op": "frobnicate"})
        assert reply["status"] == "error"

    def test_request_counter(self, veil):
        before = veil.veilmon.request_count
        veil.gateway.call_monitor(veil.boot_core, {"op": "ping"})
        assert veil.veilmon.request_count == before + 1

    def test_pvalidate_delegation_sanitizes(self, veil):
        target = veil.veilmon.image_ppns[0]
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core, {
                "op": "pvalidate", "ppn": target, "validate": False})

    def test_pvalidate_delegation_allows_kernel_pages(self, veil):
        frame = veil.kernel.mm.alloc_frame("psc")
        reply = veil.gateway.call_monitor(veil.boot_core, {
            "op": "pvalidate", "ppn": frame, "validate": True})
        assert reply["status"] == "ok"

    def test_pvalidate_rejects_vmsa_pages(self, veil):
        vmsa = veil.veilmon.vmsas[(0, VMPL_SER)]
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core, {
                "op": "pvalidate", "ppn": vmsa.ppn, "validate": False})

    def test_protected_map_denied_to_os(self, veil):
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core,
                                      {"op": "get_protected_map"})


class TestVcpuBootDelegation:
    def test_hotplug_creates_domunt_and_replicas(self, veil):
        core = veil.boot_core
        veil.kernel.hotplug_vcpu(core, 1)
        for vmpl in (VMPL_MON, VMPL_SER, VMPL_UNT):
            assert (1, vmpl) in veil.veilmon.vmsas
        second = veil.machine.core(1)
        assert second.instance is not None
        assert second.instance.vmpl == VMPL_UNT

    def test_os_cannot_request_privileged_vcpu(self, veil):
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core, {
                "op": "boot_vcpu", "vcpu_id": 1, "vmpl": VMPL_MON})

    def test_nonexistent_core_reported(self, veil):
        reply = veil.gateway.call_monitor(veil.boot_core, {
            "op": "boot_vcpu", "vcpu_id": 64})
        assert reply["status"] == "error"

    @staticmethod
    def _refused_without_an_exit(veil, request: dict) -> str:
        """``request`` gets an error reply, the CVM keeps running, and no
        replica is created and no ``start_vcpu`` reaches the hypervisor;
        returns the reply's reason."""
        cores = veil.machine.cores
        exits = sum(core.exit_count for core in cores)
        replicas = dict(veil.veilmon.vmsas)
        reply = veil.gateway.call_monitor(veil.boot_core, request)
        assert reply["status"] == "error"
        assert not veil.machine.halted
        taken = sum(core.exit_count for core in cores) - exits
        assert "vmgexit:start_vcpu" not in list(veil.hv.exit_log)[-taken:]
        assert veil.veilmon.vmsas == replicas
        assert veil.gateway.call_monitor(
            veil.boot_core, {"op": "ping"})["status"] == "ok"
        return reply["reason"]

    @pytest.mark.parametrize("field, value, reason", [
        ("vcpu_id", True, "vcpu_id is a bool, not int"),
        ("vcpu_id", "1", "vcpu_id is a str, not int"),
        ("vcpu_id", 1.0, "vcpu_id is a float, not int"),
        ("vcpu_id", -1, "no such core"),
        ("vmpl", 3.0, "vmpl is a float, not int"),
        ("cr3", True, "cr3 is a bool, not int"),
        ("ghcb_gpa", "20480", "ghcb_gpa is a str, not int")],
        ids=["true", "string", "float", "negative", "float-vmpl",
             "true-cr3", "string-ghcb"])
    def test_malformed_field_is_refused(self, veil, field, value, reason):
        request = {"op": "boot_vcpu", "vcpu_id": 1}
        request[field] = value
        assert reason in self._refused_without_an_exit(veil, request)
        assert veil.machine.core(1).instance is None

    def test_own_core_is_refused(self, veil):
        reason = self._refused_without_an_exit(
            veil, {"op": "boot_vcpu", "vcpu_id": 0})
        assert reason == "core 0 is the requesting core"

    def test_running_core_is_refused(self, veil):
        veil.kernel.hotplug_vcpu(veil.boot_core, 1)
        assert veil.machine.core(1).instance.running
        reason = self._refused_without_an_exit(
            veil, {"op": "boot_vcpu", "vcpu_id": 1})
        assert reason == "vcpu 1 is already running"


class TestAttestationFlow:
    def test_end_to_end_channel(self, veil):
        user = veil.attest_and_connect()
        assert veil.veilmon.user_channel is not None
        # Sealed user -> monitor record delivered through the OS.
        wire = user.channel.send({"cmd": "status"})
        reply = veil.gateway.call_monitor(veil.boot_core, {
            "op": "user_channel_recv", "record_hex": wire.hex()})
        assert reply["payload"] == {"cmd": "status"}

    def test_tampered_user_record_rejected(self, veil):
        user = veil.attest_and_connect()
        wire = bytearray(user.channel.send({"cmd": "clear_logs"}))
        wire[-1] ^= 0xFF
        with pytest.raises(SecurityViolation):
            veil.gateway.call_monitor(veil.boot_core, {
                "op": "user_channel_recv",
                "record_hex": bytes(wire).hex()})

    def test_monitor_heap_exhaustion_detected(self, veil):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            veil.veilmon.heap_alloc(10_000)

    def test_monitor_stats_introspection(self, veil):
        reply = veil.gateway.call_monitor(veil.boot_core,
                                          {"op": "monitor_stats"})
        assert reply["status"] == "ok"
        assert reply["services"] == ["veils-enc", "veils-kci",
                                     "veils-log"]
        assert reply["protected_pages"] > 0
        assert reply["instances"] >= 3
        assert reply["requests_served"] >= 1
