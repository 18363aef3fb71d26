"""Unit tests: guest page tables, translation, linear windows.

Mapping and window cases read the effective entry; CPL-policy cases
walk the table with a checked access on a running core.
"""

import pytest

from repro.hw import SevSnpMachine
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.pagetable import GuestPageTable, LinearWindow, PageFault
from repro.hw.vmsa import RegisterFile, Vmsa


def make_table() -> GuestPageTable:
    return GuestPageTable(0x40, cost=free_cost_model(),
                          ledger=CycleLedger())


def core_on(table: GuestPageTable, cpl: int = 0):
    """A VMPL-0 core of a 4 MiB machine with every page accepted,
    walking ``table`` at ``cpl``."""
    machine = SevSnpMachine(memory_bytes=4 * 1024 * 1024, num_cores=1)
    machine.rmp.bulk_assign_validate()
    machine.register_page_table(table)
    core = machine.core(0)
    core.hw_enter(Vmsa(vcpu_id=0, vmpl=0, ppn=1,
                       regs=RegisterFile(cr3=table.root_ppn, cpl=cpl)))
    return core


class TestMapping:
    def test_translate_mapped_page(self):
        table = make_table()
        table.map(0x10, 0x99)
        assert table.entry(0x10).ppn == 0x99
        assert core_on(table).read(0x10_000 + 0x123, 4) == bytes(4)

    def test_unmapped_raises_pagefault(self):
        table = make_table()
        assert table.entry(5) is None
        with pytest.raises(PageFault, match="vpn=0x5 access=read"):
            core_on(table).read(0x5000, 1)

    def test_unmap_removes_translation(self):
        table = make_table()
        table.map(5, 7)
        table.unmap(5)
        assert table.entry(5) is None

    def test_write_protection(self):
        table = make_table()
        table.map(5, 7, writable=False)
        core = core_on(table)
        core.read(5 << 12, 1)
        with pytest.raises(PageFault, match="access=write-protected"):
            core.write(5 << 12, b"x")

    def test_user_bit_blocks_cpl3(self):
        table = make_table()
        table.map(5, 7, user=False)
        core_on(table).read(5 << 12, 1)
        with pytest.raises(PageFault, match="access=supervisor-only"):
            core_on(table, cpl=3).read(5 << 12, 1)

    def test_nx_blocks_execute(self):
        table = make_table()
        table.map(5, 7, nx=True)
        with pytest.raises(PageFault, match="access=nx"):
            core_on(table).fetch(5 << 12)
        table.map(6, 8, nx=False)
        core_on(table).fetch(6 << 12)

    def test_protect_updates_flags(self):
        table = make_table()
        table.map(5, 7, writable=True)
        table.protect(5, writable=False)
        assert not table.entry(5).writable
        with pytest.raises(PageFault, match="access=write-protected"):
            core_on(table).write(5 << 12, b"x")

    def test_protect_unmapped_raises(self):
        with pytest.raises(PageFault):
            make_table().protect(5, writable=False)


class TestLinearWindows:
    def window(self) -> LinearWindow:
        return LinearWindow(base_vpn=0x1000, count=16, ppn_base=0x200,
                            writable=True, user=False, nx=True)

    def test_window_translation(self):
        table = make_table()
        table.add_window(self.window())
        pte = table.entry(0x1003)
        assert pte.ppn == 0x203
        assert pte.writable and not pte.user and pte.nx

    def test_window_bounds(self):
        table = make_table()
        table.add_window(self.window())
        assert table.entry(0x100F).ppn == 0x20F
        assert table.entry(0x1010) is None
        assert table.entry(0x0FFF) is None

    def test_explicit_entry_overrides_window(self):
        table = make_table()
        table.add_window(self.window())
        table.map(0x1003, 0x99)
        assert table.entry(0x1003).ppn == 0x99

    def test_unmap_overrides_window(self):
        table = make_table()
        table.add_window(self.window())
        table.unmap(0x1003)
        assert table.entry(0x1003) is None
        assert table.entry(0x1004).ppn == 0x204

    def test_protect_materializes_window_entry(self):
        table = make_table()
        table.add_window(self.window())
        table.protect(0x1003, writable=False)
        core = core_on(table)
        with pytest.raises(PageFault, match="access=write-protected"):
            core.write(0x1003 << 12, b"x")
        # Other window pages remain writable.
        core.write(0x1004 << 12, b"x")


class TestClone:
    def test_clone_copies_entries_and_windows(self):
        table = make_table()
        table.map(5, 7, writable=False)
        table.add_window(LinearWindow(base_vpn=0x1000, count=4,
                                      ppn_base=0x200))
        clone = table.clone(0x50)
        assert clone.root_ppn == 0x50
        assert clone.entry(5).ppn == 7
        assert clone.entry(0x1001).ppn == 0x201

    def test_clone_is_independent(self):
        table = make_table()
        table.map(5, 7)
        clone = table.clone(0x50)
        clone.map(5, 9)
        assert table.entry(5).ppn == 7
        assert clone.entry(5).ppn == 9

    def test_entries_snapshot_excludes_non_present(self):
        table = make_table()
        table.map(5, 7)
        table.map(6, 8)
        table.unmap(6)
        entries = table.entries()
        assert 5 in entries and 6 not in entries
