"""Unit/integration tests: the untrusted hypervisor."""

import pytest

from repro.errors import CvmHalted
from repro.hw import SevSnpMachine
from repro.hw.ghcb import SWITCH_FRAMES, Ghcb
from repro.hw.memory import page_base
from repro.hw.vmsa import Vmsa
from repro.hv import Hypervisor
from repro.hv.hypervisor import GhcbPolicy, HostAccessBlocked


def launched():
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=2)
    hv = Hypervisor(machine)
    vmsa = hv.launch(b"image")
    core = machine.core(0)
    core.hw_enter(vmsa)
    machine.rmp.bulk_assign_validate()
    for ppn in machine.vmsa_objects:
        machine.rmp.entry(ppn).vmsa = True
    return machine, hv, core


def armed_ghcb(machine, core) -> Ghcb:
    ppn = machine.frames.alloc()
    machine.rmp.share(ppn)
    core.regs.cpl = 0
    core.wrmsr_ghcb(page_base(ppn))
    return Ghcb(ppn)


class TestLaunch:
    def test_launch_measures_image(self):
        machine, hv, core = launched()
        from repro.crypto import sha256
        assert hv.psp.launch_measurement == sha256(b"image")

    def test_boot_vmsa_is_vmpl0(self):
        machine, hv, core = launched()
        assert core.vmpl == 0
        assert (0, 0) in hv.vmsas


class TestHostAccess:
    def test_host_blocked_from_assigned_pages(self):
        machine, hv, core = launched()
        with pytest.raises(HostAccessBlocked):
            hv.host_read(page_base(10), 16)
        with pytest.raises(HostAccessBlocked):
            hv.host_write(page_base(10), b"evil")

    def test_host_blocked_from_vmsa_pages(self):
        machine, hv, core = launched()
        vmsa_ppn = next(iter(machine.vmsa_objects))
        with pytest.raises(HostAccessBlocked):
            hv.host_write(page_base(vmsa_ppn), b"\x00")

    def test_host_allowed_on_shared_pages(self):
        machine, hv, core = launched()
        ppn = machine.frames.alloc()
        machine.rmp.share(ppn)
        hv.host_write(page_base(ppn), b"bounce")
        assert hv.host_read(page_base(ppn), 6) == b"bounce"


class TestVmgexitDispatch:
    def test_console_io(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "io", "device": "console",
            "data_hex": b"hello hypervisor\n".hex()})
        core.vmgexit()
        assert "hello hypervisor" in hv.console.output
        reply = ghcb.read_message(machine.memory)
        assert reply["status"] == "ok"

    def test_block_device_io(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        sector = (b"data" * 128)
        ghcb.write_message(machine.memory, {
            "op": "io", "device": "block", "action": "write", "lba": 3,
            "data_hex": sector.hex()})
        core.vmgexit()
        ghcb.write_message(machine.memory, {
            "op": "io", "device": "block", "action": "read", "lba": 3})
        core.vmgexit()
        reply = ghcb.read_message(machine.memory)
        assert bytes.fromhex(reply["data_hex"]) == sector

    def test_page_state_change_share(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        target = machine.frames.alloc()
        ghcb.write_message(machine.memory, {
            "op": "page_state_change", "action": "share",
            "ppns": [target]})
        core.vmgexit()
        assert machine.rmp.entry(target).shared

    def test_unknown_op_halts(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "nonsense"})
        with pytest.raises(CvmHalted):
            core.vmgexit()

    @pytest.mark.parametrize("op", [
        "nonsense", "__init__", "op_io", ["io"], {"op": "io"}, 7, None],
        ids=["unknown", "dunder", "prefixless", "list", "object", "int",
             "null"])
    def test_op_outside_the_table_halts_and_is_logged(self, op):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": op})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == f"unknown VMGEXIT op {op!r}"
        assert hv.exit_log[-1] == f"vmgexit:{op}"

    def test_guest_halt_request(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "halt",
                                            "reason": "test"})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == "test"

    def test_attestation_report_stamps_requester_vmpl(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "attestation_report",
            "report_data_hex": (b"\x01" * 32).hex()})
        core.vmgexit()
        reply = ghcb.read_message(machine.memory)
        assert reply["requester_vmpl"] == 0

    def test_exit_log_records_operations(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "io", "device": "console", "data_hex": "00"})
        core.vmgexit()
        assert "vmgexit:io" in hv.exit_log


class TestDomainSwitchPolicy:
    def test_switch_via_unregistered_ghcb_halts(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "domain_switch",
                                            "target_vmpl": 3})
        with pytest.raises(CvmHalted):
            core.vmgexit()

    def test_disallowed_pair_halts(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        from repro.hv.hypervisor import GhcbPolicy
        hv.ghcb_policies[ghcb.ppn] = GhcbPolicy(
            vcpu_id=0, allowed_switches={(3, 2)})
        ghcb.write_message(machine.memory, {"op": "domain_switch",
                                            "target_vmpl": 1})
        with pytest.raises(CvmHalted):
            core.vmgexit()


def raw_frame(payload: bytes) -> bytes:
    """Length-prefixed GHCB page bytes holding ``payload`` verbatim."""
    return len(payload).to_bytes(4, "little") + payload


def switch_ready():
    """A VMPL-0 core whose GHCB may switch it to a VMPL-3 instance."""
    machine, hv, core = launched()
    ghcb = armed_ghcb(machine, core)
    hv.ghcb_policies[ghcb.ppn] = GhcbPolicy(vcpu_id=0,
                                            allowed_switches={(0, 3)})
    hv.vmsas[(0, 3)] = Vmsa(vcpu_id=0, vmpl=3, ppn=machine.frames.alloc())
    return machine, core, ghcb


class TestMalformedGhcbMessage:
    """Errant hypercalls crash the CVM (section 6.2), never a traceback."""

    def test_pre_encoded_frame_switches(self):
        machine, core, ghcb = switch_ready()
        frame = raw_frame(b'{"op": "domain_switch", "target_vmpl": 3}')
        assert frame == SWITCH_FRAMES[3]
        machine.memory.write(ghcb.gpa, frame)
        core.vmgexit()
        assert core.vmpl == 3

    def test_json_fallback_switches(self):
        machine, core, ghcb = switch_ready()
        frame = raw_frame(b'{"target_vmpl":3,"op":"domain_switch"}')
        assert frame not in SWITCH_FRAMES.values()
        machine.memory.write(ghcb.gpa, frame)
        core.vmgexit()
        assert core.vmpl == 3

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe\x00garbage",                       # not UTF-8
        b"{not json",                                  # not JSON
        b"[1, 2, 3]",                                  # not an object
        b'"domain_switch"',                            # not an object
        b'{"op": "domain_switch", "target_vmpl": "x"}',
        b'{"op": "domain_switch", "target_vmpl": null}',
        b'{"op": "domain_switch"}',
        b'{"op": "domain_switch", "target_vmpl": Infinity}',
    ], ids=["non-utf8", "non-json", "list", "string", "vmpl-str",
            "vmpl-null", "vmpl-missing", "vmpl-inf"])
    def test_malformed_message_halts(self, payload):
        machine, core, ghcb = switch_ready()
        machine.memory.write(ghcb.gpa, raw_frame(payload))
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halted
        assert machine.halt_reason.startswith("malformed GHCB message")

    @pytest.mark.parametrize("payload", [
        b"[" * 1500 + b"]" * 1500,
        b'{"op": "domain_switch", "target_vmpl": ' + b"[" * 1500 +
        b"]" * 1500 + b"}",
    ], ids=["nested-list", "nested-field"])
    def test_deeply_nested_message_halts(self, payload):
        # Nesting past the codec's MAX_DEPTH is one more malformed
        # message, refused before the parser recurses.
        machine, core, ghcb = switch_ready()
        machine.memory.write(ghcb.gpa, raw_frame(payload))
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason.startswith("malformed GHCB message")

    def test_malformed_field_of_other_op_halts(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "register_vmsa",
                                            "vmsa_ppn": "page"})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert "malformed GHCB message" in machine.halt_reason
