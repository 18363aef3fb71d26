"""Unit tests: kernel memory manager and layout helpers."""

import pytest

from repro.errors import KernelError
from repro.hw import SevSnpMachine
from repro.kernel import layout
from repro.kernel.mm import MemoryManager


@pytest.fixture
def mm():
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=1)
    return MemoryManager(machine)


class TestLayoutHelpers:
    def test_direct_map_vaddr(self):
        assert layout.direct_map_vaddr(0) == layout.KERNEL_DIRECT_BASE
        assert layout.direct_map_vaddr(0x1234) == \
            layout.KERNEL_DIRECT_BASE + 0x1234

    def test_vpn(self):
        assert layout.vpn(0x2000) == 2

    def test_alignment_helpers(self):
        assert layout.page_aligned(0x3000)
        assert not layout.page_aligned(0x3001)
        assert layout.align_up(0x3001) == 0x4000
        assert layout.align_up(0x3000) == 0x3000

    def test_regions_do_not_overlap(self):
        assert layout.USER_SPACE_END <= layout.KERNEL_DIRECT_BASE
        assert layout.ENCLAVE_BASE + layout.ENCLAVE_MAX_BYTES <= \
            layout.USER_MMAP_BASE
        assert layout.KERNEL_TEXT_BASE + \
            layout.KERNEL_TEXT_PAGES * 4096 <= layout.KERNEL_DATA_BASE


class TestMemoryManager:
    def test_frame_ownership_tracking(self, mm):
        ppn = mm.alloc_frame()
        assert mm.owns(ppn)
        mm.free_frame(ppn)
        assert not mm.owns(ppn)

    def test_freeing_unowned_frame_rejected(self, mm):
        foreign = mm.machine.frames.alloc("not-kernel")
        with pytest.raises(KernelError):
            mm.free_frame(foreign)

    def test_disown_releases_accounting_not_frame(self, mm):
        ppn = mm.alloc_frame()
        mm.disown_frame(ppn)
        assert not mm.owns(ppn)
        # Frame still allocated machine-side (not returned to the pool).
        assert ppn in mm.machine.frames._allocated

    def test_kernel_space_has_direct_map(self, mm):
        table = mm.new_kernel_space()
        pte = table.entry(layout.vpn(layout.direct_map_vaddr(0x5000)))
        assert pte.ppn == 5 and pte.writable

    def test_direct_map_not_user_accessible(self, mm):
        from repro.hw.pagetable import PageFault
        from repro.hw.vmsa import RegisterFile, Vmsa
        table = mm.new_kernel_space()
        assert not table.entry(
            layout.vpn(layout.direct_map_vaddr(0x5000))).user
        core = mm.machine.core(0)
        core.hw_enter(Vmsa(vcpu_id=0, vmpl=0, ppn=1,
                           regs=RegisterFile(cr3=table.root_ppn, cpl=3)))
        with pytest.raises(PageFault, match="access=supervisor-only"):
            core.read(layout.direct_map_vaddr(0x5000), 1)

    def test_map_region_rejects_unaligned(self, mm):
        table = mm.new_kernel_space()
        with pytest.raises(KernelError):
            mm.map_region(table, 0x1001, [3], writable=True, user=False,
                          nx=True)

    def test_map_unmap_region_roundtrip(self, mm):
        table = mm.new_kernel_space()
        ppns = mm.alloc_frames(3)
        mm.map_region(table, 0x40_0000, ppns, writable=True, user=True,
                      nx=True)
        for index in range(3):
            pte = table.entry(layout.vpn(0x40_0000) + index)
            assert pte.ppn == ppns[index]
            assert pte.writable and pte.user and pte.nx
        mm.unmap_region(table, 0x40_0000, 3)
        for index in range(3):
            assert table.entry(layout.vpn(0x40_0000) + index) is None

    def test_pvalidate_hook_injection(self, mm):
        calls = []
        mm.pvalidate_hook = lambda core, ppn, validate: \
            calls.append((ppn, validate))
        mm.validate_page(None, 7)
        mm.invalidate_page(None, 7)
        assert calls == [(7, True), (7, False)]
