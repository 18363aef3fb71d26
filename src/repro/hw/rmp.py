"""Reverse Map (RMP) table and VMPL permission enforcement.

The RMP is SEV-SNP's per-physical-page metadata table.  For this
reproduction each entry tracks:

* ``assigned`` -- page belongs to the guest (vs. hypervisor/shared);
* ``validated`` -- guest has executed ``PVALIDATE`` on the page;
* ``vmsa`` -- page holds a VM Save Area (not normally accessible);
* a permission mask per VMPL (read / write / user-exec / supervisor-exec).

Semantics mirror the AMD SNP ABI as used by the paper:

* VMPL-0 implicitly holds full permissions on every assigned page.
* ``RMPADJUST`` executed at VMPL *n* may only modify permissions of VMPLs
  strictly less privileged than *n* (numerically greater).  An attempt to
  touch the permissions of one's own or a more-privileged VMPL raises a
  fault -- this is the architectural guarantee Veil's Table 1 row
  "Adjust VMPL restrictions -> RMPADJUST prohibited" relies on.
* Any access whose permission bit is clear raises
  :class:`~repro.errors.NestedPageFault` (#NPF).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import InvalidInstruction, NestedPageFault
from ..trace import NULL_SPAN, NULL_TRACER
from .cycles import CostModel, CycleLedger

NUM_VMPLS = 4

# The paper's fixed domain-to-VMPL assignment (section 5.1).  A
# privilege domain is a (VMPL, CPL) pair, and Veil uses four:
#
#   Domain   VMPL  CPL  Occupant
#   DomMON   0     0    VeilMon (the security monitor)
#   DomSER   1     0    Protected services (KCI / ENC / LOG)
#   DomENC   2     3    Enclaves (mutual OS/enclave protection)
#   DomUNT   3     0/3  The operating system and its processes
#
# These are hardware vocabulary: every layer above ``hw`` must use the
# names, never the raw integers (enforced by veil-lint's
# ``vmpl-literal`` rule).
VMPL_MON = 0      # DomMON: the VeilMon security monitor
VMPL_SER = 1      # DomSER: protected services (KCI / ENC / LOG)
VMPL_ENC = 2      # DomENC: enclaves
VMPL_UNT = 3      # DomUNT: the untrusted OS and its processes

#: VMPL -> paper domain name, for telemetry and rendering.
DOMAIN_NAMES = {VMPL_MON: "DomMON", VMPL_SER: "DomSER",
                VMPL_ENC: "DomENC", VMPL_UNT: "DomUNT"}


def vmpl_name(vmpl: int) -> str:
    """The paper's domain name for ``vmpl`` (e.g. ``DomMON``)."""
    return DOMAIN_NAMES.get(vmpl, f"VMPL{vmpl}")


class Access(enum.Flag):
    """Access kinds tracked per VMPL, matching the SNP permission bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    UEXEC = enum.auto()    # execute at CPL-3
    SEXEC = enum.auto()    # execute at CPL-0

    @classmethod
    def all(cls) -> "Access":
        return cls.READ | cls.WRITE | cls.UEXEC | cls.SEXEC

    @classmethod
    def rw(cls) -> "Access":
        return cls.READ | cls.WRITE


def _default_perms() -> list[Access]:
    # VMPL-0 always has full access; others start with none.
    return [Access.all(), Access.NONE, Access.NONE, Access.NONE]


@dataclass
class RmpEntry:
    """RMP metadata for one 4 KiB physical page."""

    assigned: bool = False
    validated: bool = False
    vmsa: bool = False
    shared: bool = False
    perms: list[Access] = field(default_factory=_default_perms)

    def allows(self, vmpl: int, access: Access) -> bool:
        """Whether ``vmpl`` holds every bit of ``access``."""
        if vmpl == 0:
            return True
        return (self.perms[vmpl] & access) == access


class Rmp:
    """The machine-wide reverse map table."""

    def __init__(self, num_pages: int, *, cost: CostModel | None = None,
                 ledger: CycleLedger | None = None, tracer=None):
        self.num_pages = num_pages
        #: Monotonic mutation counter covering the whole table.  Every
        #: operation that can change an entry's state -- including
        #: :meth:`entry`, which hands out a mutable reference -- bumps it;
        #: the per-VCPU software TLB (:mod:`repro.hw.tlb`) discards its
        #: cached allow-verdicts whenever the generation moved.  veil-lint's
        #: ``rmp-mutation-generation`` rule enforces that mutators bump.
        self.generation = 0
        self._entries: dict[int, RmpEntry] = {}
        #: Template for pages without an explicit entry.  Bulk operations
        #: (the boot sweep) update this template instead of materializing
        #: millions of entries; semantics are identical to per-page updates
        #: because explicit entries always take precedence.
        self._default = RmpEntry()
        self.cost = cost or CostModel()
        self.ledger = ledger or CycleLedger()
        self.tracer = tracer or NULL_TRACER

    def entry(self, ppn: int) -> RmpEntry:
        """Materialized (mutable) entry for ``ppn``."""
        self._check_ppn(ppn)
        ent = self._entries.get(ppn)
        if ent is None:
            ent = RmpEntry(assigned=self._default.assigned,
                           validated=self._default.validated,
                           vmsa=False, shared=self._default.shared,
                           perms=list(self._default.perms))
            self._entries[ppn] = ent
        # Pessimistic: the caller receives a *mutable* entry, so any cached
        # verdict may be about to go stale (tests poke perms directly).
        self.generation += 1
        return ent

    def peek(self, ppn: int) -> RmpEntry:
        """Entry for ``ppn`` without materializing it (read-only use)."""
        self._check_ppn(ppn)
        return self._entries.get(ppn, self._default)

    # -- bulk operations (simulator fast path for full-memory sweeps) -------

    def bulk_rmpadjust(self, *, executing_vmpl: int, target_vmpl: int,
                       perms: Access,
                       exclude: "set[int] | frozenset[int]" = frozenset()
                       ) -> None:
        """Apply ``RMPADJUST`` to every page except ``exclude``.

        Equivalent to calling :meth:`rmpadjust` on each assigned page
        that is not excluded, not a VMSA and not shared, and charged as
        one ``RMPADJUST`` per page of the table; kept as one call so the
        boot-time sweep over gigabytes is tractable to simulate.  Pages
        never touched share one default entry, which the sweep updates
        even while it is unassigned, where the per-page op would fault;
        VeilMon sweeps only after :meth:`bulk_assign_validate`.
        """
        self._check_vmpl(executing_vmpl)
        self._check_vmpl(target_vmpl)
        if target_vmpl <= executing_vmpl:
            raise InvalidInstruction(
                f"RMPADJUST from VMPL-{executing_vmpl} may not modify "
                f"VMPL-{target_vmpl} permissions")
        tracer = self.tracer
        span = tracer.span("hw", "RMPADJUST_SWEEP", vmpl=executing_vmpl,
                           args={"pages": self.num_pages,
                                 "target_vmpl": target_vmpl}) \
            if tracer.enabled else NULL_SPAN
        with span:
            self.ledger.charge("rmpadjust",
                               self.cost.rmpadjust * self.num_pages)
            # Excluded pages keep their current (typically restricted)
            # state; materialize them so the default change below cannot
            # reach them.
            for ppn in exclude:
                self.entry(ppn)
            self._default.perms[target_vmpl] = perms
            for ppn, ent in self._entries.items():
                if ppn not in exclude and ent.assigned and not ent.vmsa \
                        and not ent.shared:
                    ent.perms[target_vmpl] = perms
            self.generation += 1

    def bulk_assign_validate(self) -> None:
        """Assign + PVALIDATE every page (launch-time acceptance sweep).

        Equivalent to :meth:`assign` then a validating :meth:`pvalidate`
        on every page that is not shared, and charged as one
        ``PVALIDATE`` per page of the table.
        """
        tracer = self.tracer
        span = tracer.span("hw", "PVALIDATE_SWEEP",
                           args={"pages": self.num_pages}) \
            if tracer.enabled else NULL_SPAN
        with span:
            self.ledger.charge("pvalidate",
                               self.cost.pvalidate * self.num_pages)
            self._default.assigned = True
            self._default.validated = True
            for ent in self._entries.values():
                if not ent.shared:
                    ent.assigned = True
                    ent.validated = True
            self.generation += 1

    # -- instruction-level operations -----------------------------------------

    def rmpadjust(self, *, executing_vmpl: int, ppn: int, target_vmpl: int,
                  perms: Access, vmsa: bool = False) -> None:
        """``RMPADJUST``: set ``target_vmpl``'s permissions on page ``ppn``.

        Only a strictly more-privileged VMPL may adjust a level's
        permissions.  Raises :class:`InvalidInstruction` otherwise -- the
        paper's kernel-side attempt to lift its own restrictions is exactly
        this fault.
        """
        self._check_vmpl(executing_vmpl)
        self._check_vmpl(target_vmpl)
        self._check_ppn(ppn)
        # A level may only adjust strictly less-privileged levels, with one
        # architectural exception: VMPL-0 may target itself, which is how
        # an SVSM-style monitor creates VMPL-0 AP VMSAs.
        same_level_mon = executing_vmpl == 0 and target_vmpl == 0
        if target_vmpl <= executing_vmpl and not same_level_mon:
            raise InvalidInstruction(
                f"RMPADJUST from VMPL-{executing_vmpl} may not modify "
                f"VMPL-{target_vmpl} permissions")
        ent = self.entry(ppn)
        if not ent.assigned:
            raise NestedPageFault(
                f"RMPADJUST on unassigned page {ppn:#x}", gpa=ppn << 12,
                vmpl=executing_vmpl, access="rmpadjust")
        tracer = self.tracer
        span = tracer.span("hw", "RMPADJUST", vmpl=executing_vmpl,
                           args={"ppn": ppn, "target_vmpl": target_vmpl}) \
            if tracer.enabled else NULL_SPAN
        with span:
            self.ledger.charge("rmpadjust", self.cost.rmpadjust)
            ent.perms[target_vmpl] = perms
            ent.vmsa = vmsa
            self.generation += 1

    def pvalidate(self, *, executing_vmpl: int, ppn: int,
                  validate: bool) -> None:
        """``PVALIDATE``: flip a page's validated bit.

        Architecturally this runs at any VMPL, but a VMPL whose RMP
        permissions on the page are empty cannot meaningfully use it; Veil
        routes all PVALIDATE through VeilMon (VMPL-0) by *policy*, which the
        :mod:`repro.core.delegation` layer enforces.
        """
        self._check_vmpl(executing_vmpl)
        ent = self.entry(ppn)
        tracer = self.tracer
        span = tracer.span("hw", "PVALIDATE", vmpl=executing_vmpl,
                           args={"ppn": ppn, "validate": validate}) \
            if tracer.enabled else NULL_SPAN
        with span:
            self.ledger.charge("pvalidate", self.cost.pvalidate)
            if validate and not ent.assigned:
                raise NestedPageFault(
                    f"PVALIDATE on page {ppn:#x} not assigned to the guest",
                    gpa=ppn << 12, vmpl=executing_vmpl, access="pvalidate")
            ent.validated = validate
            self.generation += 1

    # -- hypervisor-side state transitions ------------------------------------

    def assign(self, ppn: int) -> None:
        """Hypervisor donates page ``ppn`` to the guest (pre-validation)."""
        ent = self.entry(ppn)
        ent.assigned = True
        ent.validated = False
        ent.shared = False
        self.generation += 1

    def unassign(self, ppn: int) -> None:
        """Hypervisor reclaims page ``ppn`` (guest must have shared it)."""
        ent = self.entry(ppn)
        ent.assigned = False
        ent.validated = False
        ent.vmsa = False
        ent.shared = False
        ent.perms = _default_perms()
        self.generation += 1

    def install_vmsa(self, ppn: int) -> None:
        """Mark page ``ppn`` as a sealed, guest-owned VMSA page.

        This is the PSP/VMENTER-side state transition backing VMSA
        creation: the page becomes assigned + validated + VMSA-marked in
        one step, so ``check_access`` seals it from every VMPL but 0.
        Guest-side VMSA creation goes through :meth:`rmpadjust` with
        ``vmsa=True`` instead; this gate exists so the hypervisor and
        boot flows never poke entry fields directly.
        """
        ent = self.entry(ppn)
        ent.assigned = True
        ent.validated = True
        ent.vmsa = True
        self.generation += 1

    def share(self, ppn: int) -> None:
        """Mark page ``ppn`` as a shared (unencrypted) page.

        Shared pages -- e.g. GHCBs and bounce buffers -- are readable and
        writable by both the guest (any VMPL) and the hypervisor, but never
        executable by the guest.
        """
        ent = self.entry(ppn)
        ent.assigned = False
        ent.validated = False
        ent.vmsa = False
        ent.shared = True
        ent.perms = _default_perms()
        self.generation += 1

    # -- access checking --------------------------------------------------------

    def check_access(self, *, ppn: int, vmpl: int, access: Access) -> None:
        """Raise #NPF unless ``vmpl`` may perform ``access`` on ``ppn``."""
        self._check_vmpl(vmpl)
        ent = self.peek(ppn)
        if ent.shared:
            if access & (Access.UEXEC | Access.SEXEC):
                raise NestedPageFault(
                    f"execute from shared page {ppn:#x}", gpa=ppn << 12,
                    vmpl=vmpl, access=access.name or str(access))
            return
        if not ent.assigned or not ent.validated:
            raise NestedPageFault(
                f"access to {'unassigned' if not ent.assigned else 'unvalidated'}"
                f" page {ppn:#x}", gpa=ppn << 12, vmpl=vmpl,
                access=access.name or str(access))
        if ent.vmsa and vmpl != 0:
            # VMSA pages are sealed from everything but VMPL-0 software.
            raise NestedPageFault(
                f"access to VMSA page {ppn:#x} from VMPL-{vmpl}",
                gpa=ppn << 12, vmpl=vmpl, access=access.name or str(access))
        if not ent.allows(vmpl, access):
            raise NestedPageFault(
                f"VMPL-{vmpl} lacks {access!r} on page {ppn:#x}",
                gpa=ppn << 12, vmpl=vmpl, access=access.name or str(access))

    # -- helpers ---------------------------------------------------------------

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.num_pages:
            raise IndexError(f"ppn {ppn:#x} outside RMP ({self.num_pages})")

    @staticmethod
    def _check_vmpl(vmpl: int) -> None:
        if not 0 <= vmpl < NUM_VMPLS:
            raise ValueError(f"invalid VMPL {vmpl}")
