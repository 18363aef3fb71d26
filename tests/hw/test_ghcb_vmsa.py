"""Unit tests: GHCB message passing and VMSA save/restore."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.ghcb import _ENCODER, SWITCH_FRAMES, Ghcb
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
        Ghcb(3).write_message(fast, message)
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
