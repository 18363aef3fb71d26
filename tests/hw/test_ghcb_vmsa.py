"""Unit tests: GHCB message passing and VMSA save/restore."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.ghcb import (_ENCODER, OK_FRAME, SWITCH_FRAMES, Ghcb,
                           decode_payload, encode_frame, frame_length)
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.vmsa import GPR_NAMES, RegisterFile, Vmsa


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


def encoder_frame(message):
    """The length-prefixed bytes the generic encoder path writes."""
    blob = _ENCODER.encode(message).encode("utf-8")
    return len(blob).to_bytes(4, "little") + blob


class TestSwitchFrames:
    def test_four_frames_byte_equal_encoder_output(self):
        assert sorted(SWITCH_FRAMES) == [0, 1, 2, 3]
        for vmpl, frame in SWITCH_FRAMES.items():
            assert frame == encoder_frame(
                {"op": "domain_switch", "target_vmpl": vmpl})

    @pytest.mark.parametrize("vmpl", range(4))
    def test_page_bytes_and_charges_match_encoder_path(self, vmpl):
        message = {"op": "domain_switch", "target_vmpl": vmpl}
        fast = PhysicalMemory(8 * PAGE_SIZE, ledger=CycleLedger())
        Ghcb(3).write_switch(fast, vmpl)
        slow = PhysicalMemory(8 * PAGE_SIZE, ledger=CycleLedger())
        slow.write(3 * PAGE_SIZE, encoder_frame(message))
        assert fast.ledger.total == slow.ledger.total > 0
        assert fast.read(3 * PAGE_SIZE, 64) == slow.read(3 * PAGE_SIZE, 64)

    def test_read_returns_a_fresh_dict(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "domain_switch", "target_vmpl": 1})
        first = ghcb.read_message(mem)
        first["target_vmpl"] = 0
        assert ghcb.read_message(mem) == {"op": "domain_switch",
                                          "target_vmpl": 1}

    @pytest.mark.parametrize("message", [
        {"op": "domain_switch", "target_vmpl": True},
        {"op": "domain_switch", "target_vmpl": 7},
        {"op": "domain_switch", "target_vmpl": 1, "extra": 0},
    ])
    def test_other_shapes_take_the_encoder_path(self, mem, message):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, message)
        frame = encoder_frame(message)
        assert mem.read(3 * PAGE_SIZE, len(frame)) == frame
        assert ghcb.read_message(mem) == message

    @pytest.mark.parametrize("vmpl", [4, -1, 2 ** 70])
    def test_write_switch_to_a_non_vmpl_encodes_the_request(self, mem,
                                                            vmpl):
        ghcb = Ghcb(3)
        ghcb.write_switch(mem, vmpl)
        message = {"op": "domain_switch", "target_vmpl": vmpl}
        frame = encoder_frame(message)
        assert mem.read(3 * PAGE_SIZE, len(frame)) == frame
        assert ghcb.read_message(mem) == message


class TestFrameCodec:
    def test_ok_frame_is_the_encoder_output(self):
        assert OK_FRAME == encoder_frame({"status": "ok"})
        assert encode_frame({"status": "ok"}) is OK_FRAME

    @pytest.mark.parametrize("message", [
        {"status": "ok", "extra": 1}, {"status": "OK"}, {"state": "ok"}])
    def test_other_replies_take_the_encoder_path(self, message):
        assert encode_frame(message) == encoder_frame(message)

    @pytest.mark.parametrize("payload", [
        b'{"status": "ok"}', b'{"status":"ok"}',
        b'{"op": "domain_switch", "target_vmpl": 2}',
        b'{"target_vmpl": 2, "op": "domain_switch"}', b"[1, 2]", b"7"])
    def test_decode_matches_json_loads(self, payload):
        assert decode_payload(payload) == json.loads(payload)

    def test_decoded_constants_are_fresh(self):
        payload = OK_FRAME[4:]
        first = decode_payload(payload)
        first["status"] = "changed"
        assert decode_payload(payload) == {"status": "ok"}

    def test_frame_length_reads_the_little_endian_header(self):
        assert frame_length(OK_FRAME[:4]) == len(OK_FRAME) - 4

    def test_deep_nesting_is_a_value_error(self):
        # The parser recurses per level; the codec's callers catch only
        # ValueError, so exhausting the recursion must not escape.
        for payload in (b"[" * 3000 + b"]" * 3000, b'{"a":' * 3000):
            with pytest.raises(ValueError):
                decode_payload(payload)


def append_message(reply_to, record_hex):
    """The dict ``MonitorGateway.call_service`` writes for a log append."""
    return {"op": "log_append", "record_hex": record_hex,
            "_reply_to": reply_to}


def json_or_error(payload):
    """``json.loads`` of a payload, or the ValueError type it raised."""
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError:
        return ValueError


def codec_or_error(payload):
    try:
        return decode_payload(payload)
    except ValueError:
        return ValueError


APPEND = encoder_frame(append_message(3, "00ff"))[4:]


class TestLogAppendFrame:
    """The VeilS-LOG append frame is written from a template and read by
    a recognizer; both must agree with the generic codec byte for byte."""

    @given(st.one_of(st.integers(), st.booleans(), st.none()),
           st.one_of(st.text(), st.text(alphabet="0123456789abcdefABCDEF"),
                     st.text(st.characters(max_codepoint=127)),
                     st.binary().map(bytes.hex), st.integers()))
    def test_encode_equals_the_encoder(self, reply_to, record_hex):
        message = append_message(reply_to, record_hex)
        assert encode_frame(message) == encoder_frame(message)

    @pytest.mark.parametrize("record_hex", [
        'a"b', "a\\b", "a b", "a\x7f", "a\x00", "é", ""])
    def test_records_needing_escapes_take_the_encoder(self, record_hex):
        message = append_message(3, record_hex)
        assert encode_frame(message) == encoder_frame(message)

    @given(st.integers(min_value=-10**6, max_value=10**20),
           st.binary(max_size=600).map(bytes.hex))
    def test_decode_equals_json_loads(self, reply_to, record_hex):
        payload = encoder_frame(append_message(reply_to, record_hex))[4:]
        decoded = decode_payload(payload)
        assert decoded == json.loads(payload)
        assert list(decoded) == ["_reply_to", "op", "record_hex"]

    @given(st.binary(max_size=80), st.binary(max_size=8))
    def test_any_bytes_after_the_head_match_json_loads(self, body, tail):
        head = b'{"_reply_to": '
        for payload in (head + body, head + body + b'"}',
                        APPEND[:20] + body + APPEND[20:] + tail):
            assert codec_or_error(payload) == json_or_error(payload)

    def test_extra_key_takes_the_encoder_path(self):
        message = dict(append_message(3, "00"), extra=1)
        assert encode_frame(message) == encoder_frame(message)

    @pytest.mark.parametrize("payload", [
        APPEND,
        APPEND.replace(b": 3,", b": 03,"),           # leading zero
        APPEND.replace(b": 3,", b": 0,"),
        APPEND.replace(b": 3,", b": -3,"),
        APPEND.replace(b": 3,", b": 3.0,"),
        APPEND.replace(b": 3,", b": 1" + b"9" * 30 + b","),
        APPEND.replace(b"00ff", b"\\u0061ff"),     # JSON escape
        APPEND.replace(b"00ff", b"00FF"),            # uppercase hex
        APPEND.replace(b"00ff", b""),                # empty record
        APPEND.replace(b"00ff", b"00 ff"),
        APPEND.replace(b"00ff", "00\u00e9".encode()),  # non-ASCII
        APPEND + b"x",                               # trailing bytes
        APPEND + b" ",
        APPEND[:-1],
        APPEND.replace(b'"_reply_to": 3, ', b""),    # no _reply_to
        APPEND.replace(b"log_append", b"log_appenD"),
        APPEND.replace(b", ", b","),
    ])
    def test_near_misses_match_json_loads(self, payload):
        assert codec_or_error(payload) == json_or_error(payload)

    def test_recognized_frames_are_fresh(self):
        first = decode_payload(APPEND)
        first["record_hex"] = "changed"
        assert decode_payload(APPEND)["record_hex"] == "00ff"


class TestRegisterFile:
    def test_has_all_gprs(self):
        regs = RegisterFile()
        assert set(regs.gprs) == set(GPR_NAMES)

    def test_copy_keeps_every_field(self):
        regs = RegisterFile(rip=0x1000, cpl=3, cr3=0x42, ghcb_msr=0x5000,
                            efer_sce=False)
        regs.gprs["r15"] = 11
        assert regs.copy() == regs

    def test_is_slotted(self):
        with pytest.raises(AttributeError):
            RegisterFile().not_a_register = 1

    def test_copy_is_deep(self):
        regs = RegisterFile()
        regs.gprs["rax"] = 7
        clone = regs.copy()
        clone.gprs["rax"] = 99
        assert regs.gprs["rax"] == 7


class TestVmsa:
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
