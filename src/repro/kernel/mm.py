"""Kernel memory management: frame accounting, address spaces, page state.

The kernel allocates physical frames from the machine's allocator and owns
the *untrusted* page tables (its own and each process's).  Under Veil, page
state changes (``PVALIDATE``) are delegated to VeilMon; the delegation
callback is injected at boot so this module stays Veil-agnostic.
"""

from __future__ import annotations

import typing

from ..errors import KernelError
from ..hw.pagetable import GuestPageTable
from . import layout

if typing.TYPE_CHECKING:
    from ..hw.platform import SevSnpMachine


class MemoryManager:
    """Guest-kernel physical and virtual memory management."""

    def __init__(self, machine: "SevSnpMachine"):
        self.machine = machine
        #: Called with (ppn, validate) for page-state changes.  Natively it
        #: executes PVALIDATE directly; under Veil it is replaced with a
        #: delegation to VeilMon (section 5.3).
        self.pvalidate_hook = None
        self._owned_frames: set[int] = set()

    # -- frames -----------------------------------------------------------

    def alloc_frame(self, label: str = "kernel") -> int:
        """Allocate one kernel-owned frame."""
        ppn = self.machine.frames.alloc(label)
        self._owned_frames.add(ppn)
        return ppn

    def alloc_frames(self, count: int, label: str = "kernel") -> list[int]:
        """Allocate ``count`` kernel-owned frames.

        Delegates to the machine allocator's bulk path (one
        free-list splice instead of ``count`` pops) and folds ownership
        in with one set update.  The returned frame order is identical
        to ``count`` single allocations (a tested invariant).
        """
        ppns = self.machine.frames.alloc_many(count, label)
        self._owned_frames.update(ppns)
        return ppns

    def free_frame(self, ppn: int) -> None:
        """Free a kernel-owned frame (ownership checked)."""
        if ppn not in self._owned_frames:
            raise KernelError(22, f"freeing frame {ppn:#x} not owned by "
                              "the kernel")
        self._owned_frames.discard(ppn)
        self.machine.frames.free(ppn)

    def disown_frame(self, ppn: int) -> None:
        """Drop a frame from kernel accounting without freeing it (e.g.
        after it has been donated to an enclave)."""
        self._owned_frames.discard(ppn)

    def owns(self, ppn: int) -> bool:
        """Whether the kernel accounts for this frame."""
        return ppn in self._owned_frames

    # -- page state (PVALIDATE path) ------------------------------------------

    def validate_page(self, core, ppn: int) -> None:
        """Accept/validate a page (runs PVALIDATE, possibly delegated)."""
        if self.pvalidate_hook is not None:
            self.pvalidate_hook(core, ppn, True)
        else:
            core.pvalidate(ppn=ppn, validate=True)

    def invalidate_page(self, core, ppn: int) -> None:
        """Un-validate a page (PVALIDATE, possibly delegated)."""
        if self.pvalidate_hook is not None:
            self.pvalidate_hook(core, ppn, False)
        else:
            core.pvalidate(ppn=ppn, validate=False)

    # -- address spaces ---------------------------------------------------------

    def switch_address_space(self, core, table: GuestPageTable) -> None:
        """Load ``table`` as the active address space on ``core``.

        Models a non-PCID ``MOV CR3``: the core's software TLB is fully
        flushed.  The syscall path's CR3 toggles do *not* come through
        here -- cached translations are tagged by root (PCID model), so
        the round trip into the kernel space and back stays cached.
        """
        core.regs.cr3 = table.root_ppn
        core.flush_tlb()

    def new_kernel_space(self) -> GuestPageTable:
        """Create the kernel's own address space with the direct map."""
        table = self.machine.create_page_table()
        self.install_kernel_mappings(table)
        return table

    def install_kernel_mappings(self, table: GuestPageTable) -> None:
        """Map the kernel direct map into ``table`` (supervisor-only).

        Every physical page is reachable at ``KERNEL_DIRECT_BASE + paddr``;
        CPL protection hides it from user mode and the RMP still applies,
        so a direct-map pointer into protected memory faults at access time
        rather than at mapping time (exactly the paper's attack surface).
        """
        from ..hw.pagetable import LinearWindow
        table.add_window(LinearWindow(
            base_vpn=layout.vpn(layout.KERNEL_DIRECT_BASE),
            count=self.machine.num_pages, ppn_base=0,
            writable=True, user=False, nx=True))

    def map_region(self, table: GuestPageTable, vaddr: int, ppns: list[int],
                   *, writable: bool, user: bool, nx: bool) -> None:
        """Map contiguous pages at ``vaddr`` with uniform flags."""
        if not layout.page_aligned(vaddr):
            raise KernelError(22, "unaligned mapping")
        for index, ppn in enumerate(ppns):
            table.map(layout.vpn(vaddr) + index, ppn, writable=writable,
                      user=user, nx=nx)

    def unmap_region(self, table: GuestPageTable, vaddr: int,
                     num_pages: int) -> None:
        """Unmap ``num_pages`` starting at ``vaddr``."""
        for index in range(num_pages):
            table.unmap(layout.vpn(vaddr) + index)
