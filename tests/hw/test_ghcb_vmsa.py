"""Unit tests: GHCB message passing and VMSA save/restore."""

import pytest
from hypothesis import given, strategies as st

from repro.codec import encode
from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.ghcb import (OK_FRAME, SWITCH_FRAMES, SWITCH_PAYLOADS, Ghcb,
                           decode_payload, encode_frame, frame_length)
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.vmsa import GPR_NAMES, RegisterFile, Vmsa

from tests.wire_templates import (APPEND, CONSTANT_PAYLOADS,
                                  ESCAPED_RECORDS, NEAR_CONSTANTS,
                                  NEAR_MISSES, SWITCH_SPELLINGS,
                                  append_message, check_template, framed,
                                  switch_message, switch_request)


@pytest.fixture
def mem():
    return PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                          ledger=CycleLedger())


class TestGhcb:
    def test_message_roundtrip(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "io", "value": 42})
        assert ghcb.read_message(mem) == {"op": "io", "value": 42}

    def test_gpa_matches_page(self):
        assert Ghcb(5).gpa == 5 * PAGE_SIZE

    def test_clear_invalidates(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "x"})
        ghcb.clear(mem)
        with pytest.raises(SimulationError):
            ghcb.read_message(mem)

    def test_read_without_write_rejected(self, mem):
        with pytest.raises(SimulationError):
            Ghcb(3).read_message(mem)

    def test_oversized_message_rejected(self, mem):
        with pytest.raises(SimulationError):
            Ghcb(3).write_message(mem, {"blob": "x" * PAGE_SIZE})

    def test_messages_actually_in_shared_memory(self, mem):
        """The hypervisor reads real bytes, not object references."""
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "io"})
        raw = mem.read(3 * PAGE_SIZE, 64)
        assert b'"op"' in raw

    @given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                           st.integers(-1000, 1000), max_size=3))
    def test_roundtrip_property(self, payload):
        mem = PhysicalMemory(8 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        ghcb = Ghcb(2)
        ghcb.write_message(mem, payload)
        assert ghcb.read_message(mem) == payload


class TestSwitchFrames:
    """The pinned domain-switch cases of the template property
    (:mod:`tests.wire_templates`)."""

    def test_four_frames_byte_equal_encoder_output(self):
        assert sorted(SWITCH_FRAMES) == [0, 1, 2, 3]
        for vmpl in SWITCH_FRAMES:
            check_template("switch-frame", vmpl)

    @pytest.mark.parametrize("vmpl", range(4))
    def test_page_bytes_and_charges_match_encoder_path(self, vmpl):
        fast = switch_request(vmpl, ppn=3)
        slow = PhysicalMemory(8 * PAGE_SIZE, ledger=CycleLedger())
        slow.write(3 * PAGE_SIZE, framed(encode(switch_message(vmpl))))
        assert fast.ledger.category("copy") == slow.ledger.total > 0
        assert fast.memory.read(3 * PAGE_SIZE, 64) == \
            slow.read(3 * PAGE_SIZE, 64)

    def test_read_returns_a_fresh_dict(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "domain_switch", "target_vmpl": 1})
        first = ghcb.read_message(mem)
        first["target_vmpl"] = 0
        assert ghcb.read_message(mem) == {"op": "domain_switch",
                                          "target_vmpl": 1}

    @pytest.mark.parametrize("message", NEAR_CONSTANTS[:3])
    def test_other_shapes_take_the_encoder_path(self, mem, message):
        check_template("ghcb-frame", message)
        Ghcb(3).write_message(mem, message)
        assert Ghcb(3).read_message(mem) == message

    @pytest.mark.parametrize("vmpl", [4, -1, 2 ** 70])
    def test_write_switch_to_a_non_vmpl_encodes_the_request(self, mem,
                                                            vmpl):
        check_template("switch-frame", vmpl)

    def test_hypervisor_table_holds_the_four_frame_payloads(self):
        assert SWITCH_PAYLOADS == {
            frame[4:]: vmpl for vmpl, frame in SWITCH_FRAMES.items()}
        for payload in SWITCH_PAYLOADS:
            check_template("switch-payloads", payload)

    @pytest.mark.parametrize("payload", SWITCH_SPELLINGS)
    def test_other_spellings_map_to_no_vmpl(self, payload):
        check_template("switch-payloads", payload)
        assert SWITCH_PAYLOADS.get(payload) is None


class TestFrameCodec:
    def test_ok_frame_is_the_encoder_output(self):
        assert OK_FRAME == framed(encode({"status": "ok"}))
        assert encode_frame({"status": "ok"}) is OK_FRAME

    @pytest.mark.parametrize("message", NEAR_CONSTANTS[3:6])
    def test_other_replies_take_the_encoder_path(self, message):
        check_template("ghcb-frame", message)

    @pytest.mark.parametrize("payload", CONSTANT_PAYLOADS)
    def test_decode_matches_json_loads(self, payload):
        check_template("frame-recognizer", payload)

    def test_decoded_constants_are_fresh(self):
        payload = OK_FRAME[4:]
        first = decode_payload(payload)
        first["status"] = "changed"
        assert decode_payload(payload) == {"status": "ok"}

    def test_frame_length_reads_the_little_endian_header(self):
        assert frame_length(OK_FRAME[:4]) == len(OK_FRAME) - 4

    def test_deep_nesting_is_a_value_error(self):
        # The codec refuses nesting past MAX_DEPTH before the parser
        # recurses, with an error the callers' ValueError clauses catch.
        for payload in (b"[" * 3000 + b"]" * 3000, b'{"a":' * 3000):
            with pytest.raises(ValueError):
                decode_payload(payload)


class TestLogAppendFrame:
    """The pinned VeilS-LOG append cases of the template property: the
    frame is written from a template and read by a recognizer, and both
    must agree with the codec byte for byte."""

    def test_encode_equals_the_encoder(self):
        for reply_to in (3, 0, -7, 10 ** 20, True, None):
            for record_hex in ("00ff", "", "00FF", "xyz", 7):
                check_template("ghcb-frame",
                               append_message(reply_to, record_hex))

    @pytest.mark.parametrize("record_hex", ESCAPED_RECORDS)
    def test_records_needing_escapes_take_the_encoder(self, record_hex):
        check_template("ghcb-frame", append_message(3, record_hex))

    def test_decode_equals_json_loads(self):
        for reply_to, record in ((0, b""), (-10 ** 6, b"\x00"),
                                 (10 ** 20, bytes(range(256)))):
            payload = encode(append_message(reply_to, record.hex()))
            check_template("frame-recognizer", payload)
            assert list(decode_payload(payload)) == [
                "_reply_to", "op", "record_hex"]

    def test_any_bytes_after_the_head_match_json_loads(self):
        head = b'{"_reply_to": '
        for body, tail in ((b"", b""), (b'3, "op": "log_append"', b"}"),
                           (b"\xff", b'"}'), (b"12", b"\x00")):
            for payload in (head + body, head + body + b'"}',
                            APPEND[:20] + body + APPEND[20:] + tail):
                check_template("frame-recognizer", payload)

    def test_extra_key_takes_the_encoder_path(self):
        check_template("ghcb-frame",
                       dict(append_message(3, "00"), extra=1))

    @pytest.mark.parametrize("payload", NEAR_MISSES)
    def test_near_misses_match_json_loads(self, payload):
        check_template("frame-recognizer", payload)

    def test_recognized_frames_are_fresh(self):
        first = decode_payload(APPEND)
        first["record_hex"] = "changed"
        assert decode_payload(APPEND)["record_hex"] == "00ff"


class TestRegisterFile:
    def test_has_all_gprs(self):
        regs = RegisterFile()
        assert set(regs.gprs) == set(GPR_NAMES)

    def test_is_slotted(self):
        with pytest.raises(AttributeError):
            RegisterFile().not_a_register = 1


class TestVmsa:
    def test_save_and_restore_keep_every_field(self):
        regs = RegisterFile(rip=0x1000, cpl=3, cr3=0x42, ghcb_msr=0x5000,
                            efer_sce=False)
        regs.gprs["r15"] = 11
        vmsa = Vmsa(vcpu_id=0, vmpl=2, ppn=10)
        vmsa.save(regs)
        assert vmsa.regs == regs
        assert vmsa.restore() == regs

    def test_restore_is_deep(self):
        vmsa = Vmsa(vcpu_id=0, vmpl=2, ppn=10)
        vmsa.regs.gprs["rax"] = 7
        vmsa.restore().gprs["rax"] = 99
        assert vmsa.regs.gprs["rax"] == 7

    def test_save_seals_a_copy(self):
        vmsa = Vmsa(vcpu_id=0, vmpl=2, ppn=10)
        live = RegisterFile(rip=0x1000)
        live.gprs["rbx"] = 5
        vmsa.save(live)
        live.gprs["rbx"] = 99           # post-save mutation
        assert vmsa.regs.gprs["rbx"] == 5
        assert not vmsa.running

    def test_restore_returns_a_copy(self):
        vmsa = Vmsa(vcpu_id=0, vmpl=2, ppn=10,
                    regs=RegisterFile(rip=0x2000))
        restored = vmsa.restore()
        restored.rip = 0xdead
        assert vmsa.regs.rip == 0x2000
        assert vmsa.running

    def test_vmpl_recorded_at_creation(self):
        for vmpl in range(4):
            assert Vmsa(vcpu_id=1, vmpl=vmpl, ppn=0).vmpl == vmpl
