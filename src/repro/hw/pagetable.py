"""Guest page tables: the CPL-level half of every access check.

Guest page tables express the CPL-level policy (present / writable / user /
no-execute); the RMP expresses the VMPL-level policy.  A memory access must
pass *both*: the VCPU access path walks the active page table first, then
asks the RMP whether the resulting physical page is reachable at the VCPU's
VMPL.

Each :class:`GuestPageTable` is rooted at a physical page (its ``root_ppn``)
so higher layers can protect the table itself: VeilS-ENC clones an enclave's
page table into VMPL-protected pages, and the section 8.3 validation attack
tries -- and fails -- to overwrite VeilMon's table through DomUNT mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KernelError
from .cycles import CostModel, CycleLedger


@dataclass
class Pte:
    """One page-table entry (flattened single-level model)."""

    ppn: int
    present: bool = True
    writable: bool = True
    user: bool = False
    nx: bool = True                  # no-execute

    def copy(self) -> "Pte":
        """Independent copy of this entry."""
        return Pte(self.ppn, self.present, self.writable, self.user, self.nx)


@dataclass(frozen=True)
class LinearWindow:
    """A compact contiguous mapping: ``vpn in [base_vpn, base_vpn+count)``
    maps to ``ppn_base + (vpn - base_vpn)`` with uniform flags.

    Used for the kernel direct map and kernel text so that multi-gigabyte
    guests do not need millions of explicit PTEs.  Explicit entries (and
    explicit unmaps) always override a window.
    """

    base_vpn: int
    count: int
    ppn_base: int
    writable: bool = True
    user: bool = False
    nx: bool = True

    def lookup(self, vpn: int) -> Pte | None:
        """Entry for ``vpn`` if the window covers it."""
        if self.base_vpn <= vpn < self.base_vpn + self.count:
            return Pte(self.ppn_base + (vpn - self.base_vpn), True,
                       self.writable, self.user, self.nx)
        return None


class PageFault(KernelError):
    """CPL-level page fault (#PF), resolvable by the OS (demand paging)."""

    def __init__(self, vpn: int, access: str):
        super().__init__(14, f"#PF vpn={vpn:#x} access={access}")
        self.vpn = vpn
        self.access = access


class GuestPageTable:
    """A per-address-space mapping of virtual pages to physical pages."""

    def __init__(self, root_ppn: int, *, cost: CostModel | None = None,
                 ledger: CycleLedger | None = None):
        self.root_ppn = root_ppn
        self._entries: dict[int, Pte] = {}
        self._windows: list[LinearWindow] = []
        #: Monotonic mutation counter.  Every structural change to the
        #: mapping bumps it; the per-VCPU software TLB
        #: (:mod:`repro.hw.tlb`) compares it against the generation it
        #: cached under and discards stale translations.  veil-lint's
        #: ``rmp-mutation-generation`` rule enforces that mutators bump.
        self.generation = 0
        self.cost = cost or CostModel()
        self.ledger = ledger or CycleLedger()

    # -- construction -----------------------------------------------------

    def map(self, vpn: int, ppn: int, *, writable: bool = True,
            user: bool = False, nx: bool = True) -> None:
        """Install an explicit translation for ``vpn``."""
        self._entries[vpn] = Pte(ppn, True, writable, user, nx)
        self.generation += 1

    def add_window(self, window: LinearWindow) -> None:
        """Attach a compact contiguous mapping."""
        self._windows.append(window)
        self.generation += 1

    def unmap(self, vpn: int) -> None:
        """Remove a translation (overrides any window)."""
        if self._lookup(vpn) is not None:
            # An explicit non-present entry overrides any window.
            self._entries[vpn] = Pte(0, present=False)
        self.generation += 1
        self.ledger.charge("tlb_flush", self.cost.tlb_flush)

    def protect(self, vpn: int, *, writable: bool | None = None,
                user: bool | None = None, nx: bool | None = None) -> None:
        """Update an entry's flags (materializing window pages)."""
        pte = self._entries.get(vpn)
        if pte is None:
            # Materialize a window-backed entry so it can be modified.
            backing = self._window_lookup(vpn)
            if backing is None:
                raise PageFault(vpn, "protect")
            pte = backing
            self._entries[vpn] = pte
        if writable is not None:
            pte.writable = writable
        if user is not None:
            pte.user = user
        if nx is not None:
            pte.nx = nx
        self.generation += 1
        self.ledger.charge("tlb_flush", self.cost.tlb_flush)

    def entry(self, vpn: int) -> Pte | None:
        """Effective entry for ``vpn`` (explicit or window)."""
        return self._lookup(vpn)

    def _window_lookup(self, vpn: int) -> Pte | None:
        for window in self._windows:
            pte = window.lookup(vpn)
            if pte is not None:
                return pte
        return None

    def _lookup(self, vpn: int) -> Pte | None:
        pte = self._entries.get(vpn)
        if pte is not None:
            return pte if pte.present else None
        return self._window_lookup(vpn)

    def entries(self) -> dict[int, Pte]:
        """Snapshot of all *explicit* entries (vpn -> Pte copy)."""
        return {vpn: pte.copy() for vpn, pte in self._entries.items()
                if pte.present}

    def clone(self, root_ppn: int) -> "GuestPageTable":
        """Deep-copy this table into a new root (VeilS-ENC uses this to move
        an enclave's table into protected memory)."""
        new = GuestPageTable(root_ppn, cost=self.cost, ledger=self.ledger)
        for vpn, pte in self._entries.items():
            # veil-lint: allow(rmp-mutation-generation) -- fills a fresh table: nothing can have cached under the new root yet
            new._entries[vpn] = pte.copy()
        # veil-lint: allow(rmp-mutation-generation) -- same fresh-table argument as above
        new._windows = list(self._windows)
        return new
