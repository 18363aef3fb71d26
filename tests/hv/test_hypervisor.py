"""Unit/integration tests: the untrusted hypervisor."""

import pytest

from repro.errors import CvmHalted
from repro.hw import SevSnpMachine
from repro.hw.ghcb import SWITCH_FRAMES, Ghcb
from repro.hw.memory import page_base
from repro.hw.vmsa import Vmsa
from repro.hv import Hypervisor
from repro.hv.attestation import AttestationReport
from repro.hv.hypervisor import _VMGEXIT_OPS, GhcbPolicy, HostAccessBlocked


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

    def test_io_to_block_device_halts(self):
        # The filesystem lives in guest memory: the host has no block
        # device, so a sector request is io to an unknown device.
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "io", "device": "block", "action": "read", "lba": 3})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == "io to unknown device 'block'"

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

    @pytest.mark.parametrize("length", [0, 4093, 5000, 0xFFFFFFFF],
                             ids=["zero", "past-page", "5000", "max"])
    def test_bad_length_header_halts(self, length):
        # A header announcing no payload, or more than the page holds
        # after the header, is one more malformed message.
        machine, core, ghcb = switch_ready()
        machine.memory.write(ghcb.gpa, length.to_bytes(4, "little") +
                             SWITCH_FRAMES[3][4:])
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halted
        assert machine.halt_reason.startswith("malformed GHCB message")
        assert core.instance is None or not core.instance.running

    @pytest.mark.parametrize("page", [-1, 0, 1 << 40],
                             ids=["negative", "past-memory", "far"])
    def test_ghcb_outside_physical_memory_halts(self, page):
        # The MSR may point anywhere: a page past physical memory (or
        # below it) is one more malformed message, not a traceback.
        machine, core, _ = switch_ready()
        page = page or machine.num_pages
        core.regs.cpl = 0
        core.wrmsr_ghcb(page << 12)
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halted
        assert machine.halt_reason == (
            f"malformed GHCB message: GHCB page {page:#x} is outside "
            "physical memory")
        assert core.instance is None or not core.instance.running

    def test_longest_frame_the_page_holds_is_read(self):
        # The largest announced length, 4092 bytes, still fits the page:
        # it is read and decoded (here to an unknown op), not refused.
        machine, core, ghcb = switch_ready()
        payload = b'{"op": "pad", "x": "' + b"a" * 4070 + b'"}'
        assert len(payload) == 4092
        machine.memory.write(ghcb.gpa, raw_frame(payload))
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == "unknown VMGEXIT op 'pad'"

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

    @pytest.mark.parametrize("page", [-1, 0],
                             ids=["negative", "past-memory"])
    @pytest.mark.parametrize("action", ["share", "private"])
    def test_page_state_change_outside_physical_memory_halts(self, action,
                                                             page):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        page = page or machine.num_pages
        ghcb.write_message(machine.memory, {
            "op": "page_state_change", "action": action, "ppns": [page]})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == (
            "malformed GHCB message for op 'page_state_change': "
            f"page {page:#x} outside physical memory")

    def test_page_state_change_checks_every_page_first(self):
        # One bad page refuses the whole request: page 5, named before
        # it, is not shared on the way to the halt.
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "page_state_change", "action": "share",
            "ppns": [5, machine.num_pages]})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason.startswith(
            "malformed GHCB message for op 'page_state_change'")
        entry = machine.rmp.peek(5)
        assert entry.assigned and not entry.shared

    @pytest.mark.parametrize("page", [-1, 0],
                             ids=["negative", "past-memory"])
    def test_register_vmsa_outside_physical_memory_halts(self, page):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        page = page or machine.num_pages
        ghcb.write_message(machine.memory, {"op": "register_vmsa",
                                            "vmsa_ppn": page})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == (
            "malformed GHCB message for op 'register_vmsa': "
            f"page {page:#x} outside physical memory")

    def test_malformed_field_of_other_op_halts(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "register_vmsa",
                                            "vmsa_ppn": "page"})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert "malformed GHCB message" in machine.halt_reason

    def test_oversized_attestation_report_data_halts(self):
        # The PSP signs at most 64 bytes of report data: a longer
        # request is a malformed op, not an error out of the hypervisor
        # that leaves the exited VMSA stopped and the CVM running.
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "attestation_report", "report_data_hex": "00" * 65})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halted
        assert machine.halt_reason == (
            "malformed GHCB message for op 'attestation_report': "
            "AttestationError('report data limited to 64 bytes')")

    def test_attestation_report_data_of_64_bytes_is_signed(self):
        machine, hv, core = launched()
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {
            "op": "attestation_report", "report_data_hex": "ab" * 64})
        core.vmgexit()
        reply = ghcb.read_message(machine.memory)
        report = AttestationReport(
            measurement=bytes.fromhex(reply["measurement_hex"]),
            requester_vmpl=reply["requester_vmpl"],
            report_data=bytes.fromhex(reply["report_data_hex"]),
            signature=bytes.fromhex(reply["signature_hex"]))
        assert report.report_data == b"\xab" * 64
        hv.psp.public_key.verify(report.signed_blob(), report.signature)

    @pytest.mark.parametrize("case", ["own-core", "live-core", "live-vmsa"])
    def test_start_vcpu_of_a_running_instance_halts(self, case):
        # start_vcpu may only start an idle core on an idle VMSA.  Core
        # 0 is the requester, core 1 runs (vcpu 1, VMPL-3), core 2 is
        # idle, and core 3 runs (vcpu 2, VMPL-3).
        machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=4)
        hv = Hypervisor(machine)
        core = machine.core(0)
        core.hw_enter(hv.launch(b"image"))
        machine.rmp.bulk_assign_validate()
        for vcpu_id in (1, 2):
            for vmpl in (2, 3):
                hv.vmsas[(vcpu_id, vmpl)] = Vmsa(
                    vcpu_id=vcpu_id, vmpl=vmpl, ppn=machine.frames.alloc())
        machine.core(1).hw_enter(hv.vmsas[(1, 3)])
        machine.core(3).hw_enter(hv.vmsas[(2, 3)])
        request, reason = {
            "own-core": ({"vcpu_id": 0, "vmpl": 0},
                         "start_vcpu: core 0 is the requesting core"),
            "live-core": ({"vcpu_id": 1, "vmpl": 2},
                          "start_vcpu: core 1 already runs an instance"),
            "live-vmsa": ({"vcpu_id": 2, "vmpl": 3},
                          "start_vcpu: vcpu 2 at VMPL-3 is already "
                          "running"),
        }[case]
        ghcb = armed_ghcb(machine, core)
        ghcb.write_message(machine.memory, {"op": "start_vcpu", **request})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == reason

    def test_start_vcpu_of_a_negative_core_halts(self):
        # A VMSA registered for vcpu -1 names no physical core; it must
        # not start the last one.
        machine, core, ghcb = switch_ready()
        hv = machine.hypervisor
        hv.vmsas[(-1, 3)] = Vmsa(vcpu_id=-1, vmpl=3,
                                 ppn=machine.frames.alloc())
        ghcb.write_message(machine.memory, {
            "op": "start_vcpu", "vcpu_id": -1, "vmpl": 3})
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halt_reason == "start_vcpu: no physical core -1"
        assert machine.core(1).instance is None

    @pytest.mark.parametrize("message, reason", [
        ({"op": "page_state_change", "action": "bogus", "ppns": []},
         "bad page_state_change 'bogus'"),
        ({"op": "page_state_change", "action": "share", "ppns": "00"},
         "TypeError('ppns is a str, not list')"),
        ({"op": "page_state_change", "action": "share", "ppns": [1.5]},
         "TypeError('ppns entry is a float, not int')"),
        ({"op": "page_state_change", "action": "private", "ppns": [True]},
         "TypeError('ppns entry is a bool, not int')"),
        ({"op": "register_vmsa", "vmsa_ppn": 1.5},
         "TypeError('vmsa_ppn is a float, not int')"),
        ({"op": "register_vmsa", "vmsa_ppn": True},
         "TypeError('vmsa_ppn is a bool, not int')"),
        ({"op": "register_vmsa", "vmsa_ppn": "1"},
         "TypeError('vmsa_ppn is a str, not int')"),
        ({"op": "start_vcpu", "vcpu_id": True, "vmpl": 3},
         "TypeError('vcpu_id is a bool, not int')"),
        ({"op": "start_vcpu", "vcpu_id": 1, "vmpl": 3.0},
         "TypeError('vmpl is a float, not int')"),
        ({"op": "domain_switch", "target_vmpl": True},
         "TypeError('target_vmpl is a bool, not int')"),
        ({"op": "halt", "reason": ["not", "text"]},
         "TypeError('reason is a list, not str')"),
    ], ids=["bad-action", "ppns-string", "ppn-float", "ppn-bool",
            "vmsa-float", "vmsa-bool", "vmsa-string", "vcpu-bool",
            "vmpl-float", "switch-bool", "halt-reason-list"])
    def test_field_of_the_wrong_json_type_halts(self, message, reason):
        # Integer fields take only JSON integers, ppns only an array,
        # the action only "share" or "private", and halt's reason only
        # a string; anything else halts before any page or VMSA
        # registration changes.
        machine, core, ghcb = switch_ready()
        hv = machine.hypervisor
        hv.vmsas[(1, 3)] = Vmsa(vcpu_id=1, vmpl=3,
                                ppn=machine.frames.alloc())
        vmsas, generation = dict(hv.vmsas), machine.rmp.generation
        ghcb.write_message(machine.memory, message)
        with pytest.raises(CvmHalted):
            core.vmgexit()
        assert machine.halted
        assert machine.halt_reason.endswith(reason)
        assert machine.rmp.generation == generation
        assert hv.vmsas == vmsas


#: A well-formed request for each VMGEXIT op on a ``switch_ready``
#: machine with a VMSA for (vcpu 1, VMPL-3): every field the op reads.
OP_FIELDS = {
    "domain_switch": {"target_vmpl": 3},
    "register_vmsa": {"vmsa_ppn": 1},
    "start_vcpu": {"vcpu_id": 1, "vmpl": 3},
    "page_state_change": {"action": "share", "ppns": [5]},
    "io": {"device": "console", "data_hex": "00"},
    "attestation_report": {"report_data_hex": "01" * 32},
    "halt": {"reason": "test"},
}

#: The JSON type each field must have; ``vmpl`` and ``reason`` may be
#: left out.
FIELD_TYPES = {"target_vmpl": int, "vmsa_ppn": int, "vcpu_id": int,
               "vmpl": int, "action": str, "ppns": list, "device": str,
               "data_hex": str, "report_data_hex": str, "reason": str}
OPTIONAL_FIELDS = {"vmpl", "reason"}

#: The values each field is sent as (``None`` in this table is JSON
#: ``null``; ``"missing"`` drops the field).
FUZZ_VALUES = {"str": "x", "float": 1.5, "true": True, "null": None,
               "array": [], "object": {}, "negative": -1,
               "huge": 2 ** 64}


def test_op_fields_cover_every_vmgexit_op():
    assert set(OP_FIELDS) == set(_VMGEXIT_OPS)
    assert {field for fields in OP_FIELDS.values()
            for field in fields} == set(FIELD_TYPES)


@pytest.mark.parametrize("value", ["missing"] + list(FUZZ_VALUES))
@pytest.mark.parametrize("op, field", [
    (op, field) for op, fields in OP_FIELDS.items() for field in fields])
def test_every_field_of_every_op_resumes_or_halts(op, field, value):
    """Field by field, a request either resumes the guest or halts the
    CVM (section 6.2); no other exception leaves the hypervisor, and a
    missing or wrongly typed field always halts."""
    machine, core, ghcb = switch_ready()
    machine.hypervisor.vmsas[(1, 3)] = Vmsa(
        vcpu_id=1, vmpl=3, ppn=machine.frames.alloc())
    message = {"op": op, **OP_FIELDS[op]}
    if value == "missing":
        del message[field]
        well_typed = field in OPTIONAL_FIELDS
    else:
        message[field] = FUZZ_VALUES[value]
        well_typed = type(message[field]) is FIELD_TYPES[field]
    ghcb.write_message(machine.memory, message)
    try:
        core.vmgexit()
    except CvmHalted:
        assert machine.halted
    else:
        assert well_typed, f"served {op} with {field}={value}"
        assert not machine.halted
        assert core.instance.running
