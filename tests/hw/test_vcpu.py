"""Unit tests: VCPU instances, access checks, SNP instructions, exits."""

import pytest

from repro.errors import (CvmHalted, GeneralProtectionFault,
                          SimulationError)
from repro.hw import SevSnpMachine
from repro.hw.memory import page_base
from repro.hw.rmp import Access
from repro.hw.vmsa import RegisterFile, Vmsa
from repro.hv import Hypervisor


def machine_with_boot_core(vmpl: int = 0):
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=2)
    hv = Hypervisor(machine)
    vmsa = hv.launch(b"test-image")
    core = machine.core(0)
    core.hw_enter(vmsa)
    machine.rmp.bulk_assign_validate()
    for ppn in machine.vmsa_objects:
        machine.rmp.entry(ppn).vmsa = True
    return machine, core


class TestInstanceLifecycle:
    def test_enter_restores_registers(self):
        machine, core = machine_with_boot_core()
        core.regs.gprs["rax"] = 42
        vmsa = core.hw_exit()
        assert vmsa.regs.gprs["rax"] == 42
        core.hw_enter(vmsa)
        assert core.regs.gprs["rax"] == 42

    def test_double_enter_rejected(self):
        machine, core = machine_with_boot_core()
        vmsa = core.instance
        with pytest.raises(SimulationError):
            core.hw_enter(vmsa)

    def test_vmpl_is_instance_property(self):
        machine, core = machine_with_boot_core()
        assert core.vmpl == 0

    def test_exit_without_instance_rejected(self):
        machine = SevSnpMachine(memory_bytes=4 * 1024 * 1024)
        with pytest.raises(SimulationError):
            machine.core(0).hw_exit()


class TestMemoryAccess:
    def test_virtual_access_through_page_table(self):
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        frame = machine.frames.alloc()
        table.map(0x10, frame)
        core.regs.cr3 = table.root_ppn
        core.regs.cpl = 0
        core.write(0x10_000, b"payload")
        assert core.read(0x10_000, 7) == b"payload"
        assert machine.memory.read(page_base(frame), 7) == b"payload"

    def test_rmp_violation_halts_cvm(self):
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        frame = machine.frames.alloc()
        table.map(0x10, frame)
        machine.rmp.entry(frame).perms[3] = Access.NONE
        # Build a VMPL-3 instance on core 1.
        vmsa_ppn = machine.frames.alloc()
        machine.rmp.entry(vmsa_ppn).vmsa = True
        vmsa = Vmsa(vcpu_id=1, vmpl=3, ppn=vmsa_ppn,
                    regs=RegisterFile(cr3=table.root_ppn))
        core1 = machine.core(1)
        core1.hw_enter(vmsa)
        with pytest.raises(CvmHalted):
            core1.read(0x10_000, 4)
        assert machine.halted

    def test_fetch_checks_execute_permission(self):
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        frame = machine.frames.alloc()
        table.map(0x10, frame, nx=False)
        core.regs.cr3 = table.root_ppn
        core.regs.cpl = 0
        assert len(core.fetch(0x10_000)) == 16


class TestInstructions:
    def test_rmpadjust_requires_cpl0(self):
        machine, core = machine_with_boot_core()
        core.regs.cpl = 3
        with pytest.raises(GeneralProtectionFault):
            core.rmpadjust(ppn=5, target_vmpl=3, perms=Access.all())

    def test_pvalidate_requires_cpl0(self):
        machine, core = machine_with_boot_core()
        core.regs.cpl = 3
        with pytest.raises(GeneralProtectionFault):
            core.pvalidate(ppn=5, validate=True)

    def test_wrmsr_requires_cpl0(self):
        machine, core = machine_with_boot_core()
        core.regs.cpl = 3
        with pytest.raises(GeneralProtectionFault):
            core.wrmsr_ghcb(0x1000)

    def test_ghcb_msr_roundtrip(self):
        machine, core = machine_with_boot_core()
        core.regs.cpl = 0
        core.wrmsr_ghcb(0x5000)
        assert core.rdmsr_ghcb() == 0x5000
        assert core.current_ghcb().ppn == 5

    def test_rdtsc_monotonic(self):
        machine, core = machine_with_boot_core()
        first = core.rdtsc()
        machine.ledger.charge("compute", 1000)
        assert core.rdtsc() > first


class TestExitPaths:
    def test_vmgexit_without_ghcb_halts(self):
        machine, core = machine_with_boot_core()
        with pytest.raises(CvmHalted):
            core.vmgexit()

    def test_vmgexit_charges_switch_cost(self):
        machine, core = machine_with_boot_core()
        ghcb_ppn = machine.frames.alloc()
        machine.rmp.share(ghcb_ppn)
        core.regs.cpl = 0
        core.wrmsr_ghcb(page_base(ghcb_ppn))
        from repro.hw.ghcb import Ghcb
        Ghcb(ghcb_ppn).write_message(machine.memory,
                                     {"op": "io", "device": "console",
                                      "data_hex": b"hi".hex()})
        before = machine.ledger.category("domain_switch")
        core.vmgexit()
        charged = machine.ledger.category("domain_switch") - before
        assert charged == machine.cost.vmgexit + machine.cost.vmenter

    def test_automatic_exit_resumes_same_instance(self):
        machine, core = machine_with_boot_core()
        instance = core.instance
        core.automatic_exit("timer")
        assert core.instance is instance
        assert core.exit_count == 1
