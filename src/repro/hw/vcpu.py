"""VCPU model: instances (permanent VMPL) multiplexed on physical cores.

Terminology follows the paper:

* A **VCPU instance** is a VMSA: register state plus a VMPL fixed at
  creation time.  Veil replicates one logical VCPU into several instances,
  one per privilege domain (section 5.2).

* A :class:`VirtualCpu` is the physical execution resource.  At any moment
  it runs exactly one instance; switching instances requires exiting to the
  hypervisor (``VMGEXIT``) and re-entering on a different VMSA
  (``VMENTER``), which is how Veil's hypervisor-relayed domain switch works.

All guest memory access funnels through :meth:`VirtualCpu.read`,
:meth:`write` and :meth:`fetch`, which enforce both the guest page table
(CPL policy) and the RMP (VMPL policy).  There is no back door: the kernel,
services, enclaves, and attack code in this reproduction all use these
methods, so a protection bypass would require a simulator bug, not a
missing check.
"""

from __future__ import annotations

import typing

from ..errors import (CvmHalted, GeneralProtectionFault, NestedPageFault,
                      SimulationError)
from ..trace import NULL_SPAN
from .ghcb import SWITCH_FRAMES, Ghcb
from .memory import PAGE_SHIFT, PAGE_SIZE
from .pagetable import PageFault
from .rmp import Access
from .tlb import SoftTlb
from .vmsa import RegisterFile, Vmsa

_OFFSET_MASK = PAGE_SIZE - 1

# Pre-resolved access kinds and their bits for the packed RMP-verdict
# cache keys ``(ppn << 6) | (vmpl << 4) | access_bits`` (see
# repro.hw.tlb).  Both ``Access.READ`` and ``.value`` call a Python-level
# enum descriptor, so the access paths read these constants instead.
_READ, _WRITE, _UEXEC, _SEXEC = (Access.READ, Access.WRITE, Access.UEXEC,
                                 Access.SEXEC)
_READ_BIT = _READ.value
_WRITE_BIT = _WRITE.value
_UEXEC_BIT = _UEXEC.value
_SEXEC_BIT = _SEXEC.value

if typing.TYPE_CHECKING:
    from .platform import SevSnpMachine


class VirtualCpu:
    """A physical core executing one VCPU instance at a time."""

    def __init__(self, machine: "SevSnpMachine", cpu_index: int):
        self.machine = machine
        self.cpu_index = cpu_index
        self.instance: Vmsa | None = None
        self.regs: RegisterFile = RegisterFile()
        #: Per-core software TLB + RMP permission cache (veil-turbo).
        self.tlb = SoftTlb()
        # Pre-resolved costs for the access fast path, which adds its
        # ``page_table_walk`` and ``copy`` charges to the ledger inline,
        # as CycleLedger.charge would, on a hit and on a miss alike.
        self._walk_cost = machine.cost.page_table_walk
        self._copy_x1000 = machine.cost.copy_per_byte_x1000
        #: Number of world switches taken by this core (telemetry).
        self.exit_count = 0
        #: Coarse model of per-core microarchitectural state (cache/TLB
        #: footprints): a set of owner tags left behind by executions.
        #: An attacker sharing the core can observe which tags are
        #: present (timing side channel) unless WBINVD cleared them.
        self.microarch_residue: set = set()

    # -- state -----------------------------------------------------------

    @property
    def vmpl(self) -> int:
        if self.instance is None:
            raise SimulationError("VCPU is not running any instance")
        return self.instance.vmpl

    @property
    def cpl(self) -> int:
        return self.regs.cpl

    def set_cpl(self, cpl: int) -> None:
        """Ring switch (e.g. SYSCALL / SYSRET).  Free-form because ring
        transitions are an intra-instance concept; cost is charged by the
        kernel's syscall path."""
        if cpl not in (0, 3):
            raise ValueError("model supports CPL-0 and CPL-3 only")
        self.regs.cpl = cpl

    # -- hardware entry/exit paths (called by the hypervisor) ----------------

    def hw_enter(self, vmsa: Vmsa) -> None:
        """VMENTER: load an instance's register state onto this core."""
        if self.instance is not None and self.instance.running:
            raise SimulationError(
                f"core {self.cpu_index} asked to enter while instance "
                f"(vcpu {self.instance.vcpu_id}, VMPL-{self.instance.vmpl}) "
                "is still live")
        self.instance = vmsa
        self.regs = vmsa.restore()
        # The TLB survives the switch: views are tagged by root (table
        # identity and generation), RMP verdict keys carry the VMPL, and
        # both caches revalidate against their generations per access.
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant("hw", "VMENTER", vcpu=self.cpu_index,
                           vmpl=vmsa.vmpl, args={"vcpu_id": vmsa.vcpu_id})

    def hw_exit(self) -> Vmsa:
        """VMEXIT: seal register state back into the current VMSA."""
        if self.instance is None:
            raise SimulationError("exit without a running instance")
        self.exit_count += 1
        self.instance.save(self.regs)
        return self.instance

    def flush_tlb(self) -> None:
        """Architectural TLB flush for this core (translations + cached
        RMP verdicts).

        Called on ``WBINVD`` and at explicit CR3 loads outside the
        PCID-tagged syscall path (scheduler context switch, kernel
        address-space install).  World switches do not flush: entries
        are tagged by root and VMPL and checked against the page-table
        and RMP generations on every access.  Charges nothing: modeled
        flush costs are charged where the architecture charges them
        (``unmap``/``protect``/``wbinvd``).
        """
        self.tlb.flush()

    # -- memory access ------------------------------------------------------

    def _translate_vpn(self, vpn: int, write: bool, execute: bool) -> int:
        """Translate one virtual page through the TLB, enforcing CPL
        policy; returns the physical page number.

        The walk cost is charged before any fault can raise, hit or miss.
        CPL policy is re-evaluated per access from the cached flags, the
        :class:`PageFault` kinds are checked in the walk's order (not
        present, write-protected, supervisor-only, nx), and failed
        lookups are never cached.
        """
        stats = self.tlb.stats
        view = self._refresh_view(self.regs.cr3)
        pte = view.entries.get(vpn)
        if pte is None:
            stats.misses += 1
            pte = view.table.entry(vpn)
            if pte is not None:
                view.entries[vpn] = pte
        else:
            stats.hits += 1
        self.machine.ledger.charge("page_table_walk", self._walk_cost)
        if pte is None:
            raise PageFault(vpn, "write" if write else
                            "execute" if execute else "read")
        if write and not pte.writable:
            raise PageFault(vpn, "write-protected")
        if self.regs.cpl == 3 and not pte.user:
            raise PageFault(vpn, "supervisor-only")
        if execute and pte.nx:
            raise PageFault(vpn, "nx")
        return pte.ppn

    def _rmp_fill(self, ppn: int, vmpl: int, access: Access,
                  key: int) -> None:
        """Verdict-cache miss: re-derive the RMP verdict and cache it.

        Separated from the access paths so the hit path stays a pure
        set-membership test.  A violation halts the CVM before the cache
        insert, so a deny verdict is never cached: unlike a CPL page
        fault, a guest-side RMP violation re-faults forever, and the
        paper's observable defence is "the CVM halts with continuous
        #NPFs".  :meth:`~repro.hw.rmp.Rmp.check_access` charges no
        cycles, so caching allow verdicts is ledger-neutral.
        """
        machine = self.machine
        tlb = self.tlb
        tlb.stats.rmp_misses += 1
        try:
            machine.rmp.check_access(ppn=ppn, vmpl=vmpl, access=access)
        except NestedPageFault as fault:
            machine.tracer.instant(
                "hw", "NPF", vcpu=self.cpu_index, vmpl=vmpl,
                args={"ppn": ppn, "access": access.name})
            machine.halt(f"continuous #NPF: {fault}", cause=fault)
        tlb.rmp_allow.add(key)

    def _refresh_view(self, root: int) -> "object":
        """Re-validate the TLB's current-root shortcut for ``root``.

        Installs (or re-uses) the per-root view and records the
        page-table-registry version it was validated under.
        """
        machine = self.machine
        tlb = self.tlb
        table = machine._page_tables.get(root)
        if table is None:
            raise SimulationError(f"no page table rooted at {root:#x}")
        view = tlb.views.get(root)
        if (view is None or view.table is not table
                or view.generation != table.generation):
            view = tlb.view_for(root, table)
        tlb.cur_root = root
        tlb.cur_view = view
        tlb.cur_ptver = machine._pt_version
        return view

    def _rmp_check(self, paddr: int, length: int, access: Access,
                   access_bit: int) -> None:
        """RMP permission check over every page of a physical range,
        before the caller moves a byte.

        :meth:`read`'s verdict-cache test, inline: one RMP generation
        compare per call (an RMPADJUST is visible on the very next
        access), then per page a hit on the VMPL-packed key or
        :meth:`_rmp_fill`, which halts the CVM on a violation.  A zero
        or negative length checks nothing.
        """
        if length <= 0:
            return
        instance = self.instance
        if instance is None:
            raise SimulationError("VCPU is not running any instance")
        tlb = self.tlb
        rmp = self.machine.rmp
        if tlb.rmp_generation != rmp.generation:
            tlb.invalidate_rmp(rmp.generation)
        allow = tlb.rmp_allow
        vmpl = instance.vmpl
        bits = (vmpl << 4) | access_bit
        for ppn in range(paddr >> PAGE_SHIFT,
                         ((paddr + length - 1) >> PAGE_SHIFT) + 1):
            key = (ppn << 6) | bits
            if key in allow:
                tlb.stats.rmp_hits += 1
            else:
                self._rmp_fill(ppn, vmpl, access, key)

    def _degenerate_access(self, vaddr: int, length: int, write: bool,
                           execute: bool) -> bytes:
        """The accesses the fast paths below do not take.

        A negative length raises ``ValueError`` and charges nothing.  A
        zero length walks the first page (its page faults still raise),
        charges a zero copy and returns ``b""``.  With no running
        instance the walk is charged, then ``SimulationError``: there is
        no VMPL to check the RMP at.
        """
        if length < 0:
            raise ValueError("negative length")
        self._translate_vpn(vaddr >> PAGE_SHIFT, write, execute)
        if length:
            raise SimulationError("VCPU is not running any instance")
        self.machine.ledger.charge("copy", 0)
        return b""

    # The three access methods below each have an inlined fast path: one
    # per-call validity check (RMP generation, current-root view), then a
    # per-page loop of plain dict/set operations with every attribute
    # pre-bound to a local.  The duplication across read/write/fetch is
    # deliberate -- this is the simulator's hottest loop, and factoring
    # the body into helpers costs ~2x wall-clock (measured; Python call
    # overhead dominates).  A hit and a miss charge the same ledger
    # categories with the same amounts at the same points (the walk
    # before any fault check, the copy after the RMP check, each added
    # inline as CycleLedger.charge would), so cycle totals never depend
    # on what the cache holds.  Every verdict and
    # charge is checked against a cache-free model of the SNP rules in
    # tests/hw/test_snp_reference.py.

    def read(self, vaddr: int, length: int) -> bytes:
        """Read guest-virtual memory with full protection checks.

        Translates *every* spanned virtual page and gathers -- virtually
        contiguous pages need not be physically contiguous.
        """
        instance = self.instance
        if length <= 0 or instance is None:
            return self._degenerate_access(vaddr, length, False, False)
        tlb = self.tlb
        machine = self.machine
        # Per-call validity: nothing inside a single access can move the
        # RMP or page-table generations, so check once, not per page.
        rmp = machine.rmp
        if tlb.rmp_generation != rmp.generation:
            tlb.invalidate_rmp(rmp.generation)
        root = self.regs.cr3
        view = tlb.cur_view
        if (root != tlb.cur_root or machine._pt_version != tlb.cur_ptver
                or view.generation != view.table.generation):
            view = self._refresh_view(root)
        entries = view.entries
        table = view.table
        allow = tlb.rmp_allow
        stats = tlb.stats
        vmpl_bits = instance.vmpl << 4
        user_ok = self.regs.cpl != 3
        ledger = machine.ledger
        charged = ledger.by_category
        walk_cost = self._walk_cost
        copy_x1000 = self._copy_x1000
        memory = machine.memory
        pages = memory._pages
        offset = vaddr & _OFFSET_MASK
        if offset + length <= PAGE_SIZE:
            vpn = vaddr >> PAGE_SHIFT
            pte = entries.get(vpn)
            if pte is None:
                stats.misses += 1
                pte = table.entry(vpn)
                if pte is not None:
                    entries[vpn] = pte
            else:
                stats.hits += 1
            ledger.total += walk_cost
            charged["page_table_walk"] += walk_cost
            if pte is None:
                raise PageFault(vpn, "read")
            if not (user_ok or pte.user):
                raise PageFault(vpn, "supervisor-only")
            ppn = pte.ppn
            key = (ppn << 6) | vmpl_bits | _READ_BIT
            if key in allow:
                stats.rmp_hits += 1
            else:
                self._rmp_fill(ppn, vmpl_bits >> 4, _READ, key)
            cycles = length * copy_x1000 // 1000
            ledger.total += cycles
            charged["copy"] += cycles
            buf = pages.get(ppn)
            if buf is None:
                return memory.page_bytes(ppn, offset, length)
            return bytes(buf[offset:offset + length])
        # Cross-page gather aggregates the per-page ledger
        # charges into one add per category.  Totals are identical to
        # per-page charging (integer addition commutes and nothing reads
        # the clock mid-access); the ``finally`` flush keeps the
        # partial-charge semantics of a faulting access exact too.
        out = bytearray(length)
        pos = 0
        walk_acc = 0
        copy_acc = 0
        try:
            while pos < length:
                cur = vaddr + pos
                off = cur & _OFFSET_MASK
                chunk = PAGE_SIZE - off
                if chunk > length - pos:
                    chunk = length - pos
                vpn = cur >> PAGE_SHIFT
                pte = entries.get(vpn)
                if pte is None:
                    stats.misses += 1
                    pte = table.entry(vpn)
                    if pte is not None:
                        entries[vpn] = pte
                else:
                    stats.hits += 1
                walk_acc += walk_cost
                if pte is None:
                    raise PageFault(vpn, "read")
                if not (user_ok or pte.user):
                    raise PageFault(vpn, "supervisor-only")
                ppn = pte.ppn
                key = (ppn << 6) | vmpl_bits | _READ_BIT
                if key in allow:
                    stats.rmp_hits += 1
                else:
                    self._rmp_fill(ppn, vmpl_bits >> 4, _READ, key)
                copy_acc += chunk * copy_x1000 // 1000
                buf = pages.get(ppn)
                if buf is None:
                    out[pos:pos + chunk] = memory.page_bytes(ppn, off,
                                                             chunk)
                else:
                    out[pos:pos + chunk] = buf[off:off + chunk]
                pos += chunk
        finally:
            ledger.total += walk_acc + copy_acc
            charged["page_table_walk"] += walk_acc
            charged["copy"] += copy_acc
        return bytes(out)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write guest-virtual memory with full protection checks.

        Scatter counterpart of :meth:`read`: translates and checks per
        spanned virtual page.
        """
        instance = self.instance
        length = len(data)
        if length == 0 or instance is None:
            self._degenerate_access(vaddr, length, True, False)
            return
        tlb = self.tlb
        machine = self.machine
        rmp = machine.rmp
        if tlb.rmp_generation != rmp.generation:
            tlb.invalidate_rmp(rmp.generation)
        root = self.regs.cr3
        view = tlb.cur_view
        if (root != tlb.cur_root or machine._pt_version != tlb.cur_ptver
                or view.generation != view.table.generation):
            view = self._refresh_view(root)
        entries = view.entries
        table = view.table
        allow = tlb.rmp_allow
        stats = tlb.stats
        vmpl_bits = instance.vmpl << 4
        user_ok = self.regs.cpl != 3
        ledger = machine.ledger
        charged = ledger.by_category
        walk_cost = self._walk_cost
        copy_x1000 = self._copy_x1000
        memory = machine.memory
        pages = memory._pages
        offset = vaddr & _OFFSET_MASK
        if offset + length <= PAGE_SIZE:
            vpn = vaddr >> PAGE_SHIFT
            pte = entries.get(vpn)
            if pte is None:
                stats.misses += 1
                pte = table.entry(vpn)
                if pte is not None:
                    entries[vpn] = pte
            else:
                stats.hits += 1
            ledger.total += walk_cost
            charged["page_table_walk"] += walk_cost
            if pte is None:
                raise PageFault(vpn, "write")
            if not pte.writable:
                raise PageFault(vpn, "write-protected")
            if not (user_ok or pte.user):
                raise PageFault(vpn, "supervisor-only")
            ppn = pte.ppn
            key = (ppn << 6) | vmpl_bits | _WRITE_BIT
            if key in allow:
                stats.rmp_hits += 1
            else:
                self._rmp_fill(ppn, vmpl_bits >> 4, _WRITE, key)
            cycles = length * copy_x1000 // 1000
            ledger.total += cycles
            charged["copy"] += cycles
            buf = pages.get(ppn)
            if buf is None:
                memory.page_write(ppn, offset, data)
            else:
                buf[offset:offset + length] = data
            return
        # Cross-page scatter with aggregated charges (see
        # `read` for the parity argument).
        src = memoryview(data)
        pos = 0
        walk_acc = 0
        copy_acc = 0
        try:
            while pos < length:
                cur = vaddr + pos
                off = cur & _OFFSET_MASK
                chunk = PAGE_SIZE - off
                if chunk > length - pos:
                    chunk = length - pos
                vpn = cur >> PAGE_SHIFT
                pte = entries.get(vpn)
                if pte is None:
                    stats.misses += 1
                    pte = table.entry(vpn)
                    if pte is not None:
                        entries[vpn] = pte
                else:
                    stats.hits += 1
                walk_acc += walk_cost
                if pte is None:
                    raise PageFault(vpn, "write")
                if not pte.writable:
                    raise PageFault(vpn, "write-protected")
                if not (user_ok or pte.user):
                    raise PageFault(vpn, "supervisor-only")
                ppn = pte.ppn
                key = (ppn << 6) | vmpl_bits | _WRITE_BIT
                if key in allow:
                    stats.rmp_hits += 1
                else:
                    self._rmp_fill(ppn, vmpl_bits >> 4, _WRITE, key)
                copy_acc += chunk * copy_x1000 // 1000
                buf = pages.get(ppn)
                if buf is None:
                    memory.page_write(ppn, off, src[pos:pos + chunk])
                else:
                    buf[off:off + chunk] = src[pos:pos + chunk]
                pos += chunk
        finally:
            ledger.total += walk_acc + copy_acc
            charged["page_table_walk"] += walk_acc
            charged["copy"] += copy_acc

    def fetch(self, vaddr: int, length: int = 16) -> bytes:
        """Instruction fetch: checks UEXEC/SEXEC per current CPL."""
        instance = self.instance
        if length <= 0 or instance is None:
            return self._degenerate_access(vaddr, length, False, True)
        tlb = self.tlb
        machine = self.machine
        rmp = machine.rmp
        if tlb.rmp_generation != rmp.generation:
            tlb.invalidate_rmp(rmp.generation)
        root = self.regs.cr3
        view = tlb.cur_view
        if (root != tlb.cur_root or machine._pt_version != tlb.cur_ptver
                or view.generation != view.table.generation):
            view = self._refresh_view(root)
        entries = view.entries
        table = view.table
        allow = tlb.rmp_allow
        stats = tlb.stats
        vmpl_bits = instance.vmpl << 4
        supervisor = self.regs.cpl == 0
        access = _SEXEC if supervisor else _UEXEC
        access_bit = _SEXEC_BIT if supervisor else _UEXEC_BIT
        ledger = machine.ledger
        charged = ledger.by_category
        walk_cost = self._walk_cost
        copy_x1000 = self._copy_x1000
        memory = machine.memory
        pages = memory._pages
        offset = vaddr & _OFFSET_MASK
        if offset + length <= PAGE_SIZE:
            vpn = vaddr >> PAGE_SHIFT
            pte = entries.get(vpn)
            if pte is None:
                stats.misses += 1
                pte = table.entry(vpn)
                if pte is not None:
                    entries[vpn] = pte
            else:
                stats.hits += 1
            ledger.total += walk_cost
            charged["page_table_walk"] += walk_cost
            if pte is None:
                raise PageFault(vpn, "execute")
            if not supervisor and not pte.user:
                raise PageFault(vpn, "supervisor-only")
            if pte.nx:
                raise PageFault(vpn, "nx")
            ppn = pte.ppn
            key = (ppn << 6) | vmpl_bits | access_bit
            if key in allow:
                stats.rmp_hits += 1
            else:
                self._rmp_fill(ppn, vmpl_bits >> 4, access, key)
            cycles = length * copy_x1000 // 1000
            ledger.total += cycles
            charged["copy"] += cycles
            buf = pages.get(ppn)
            if buf is None:
                return memory.page_bytes(ppn, offset, length)
            return bytes(buf[offset:offset + length])
        # Cross-page fetch with aggregated charges (see
        # `read` for the parity argument).
        out = bytearray(length)
        pos = 0
        walk_acc = 0
        copy_acc = 0
        try:
            while pos < length:
                cur = vaddr + pos
                off = cur & _OFFSET_MASK
                chunk = PAGE_SIZE - off
                if chunk > length - pos:
                    chunk = length - pos
                vpn = cur >> PAGE_SHIFT
                pte = entries.get(vpn)
                if pte is None:
                    stats.misses += 1
                    pte = table.entry(vpn)
                    if pte is not None:
                        entries[vpn] = pte
                else:
                    stats.hits += 1
                walk_acc += walk_cost
                if pte is None:
                    raise PageFault(vpn, "execute")
                if not supervisor and not pte.user:
                    raise PageFault(vpn, "supervisor-only")
                if pte.nx:
                    raise PageFault(vpn, "nx")
                ppn = pte.ppn
                key = (ppn << 6) | vmpl_bits | access_bit
                if key in allow:
                    stats.rmp_hits += 1
                else:
                    self._rmp_fill(ppn, vmpl_bits >> 4, access, key)
                copy_acc += chunk * copy_x1000 // 1000
                buf = pages.get(ppn)
                if buf is None:
                    out[pos:pos + chunk] = memory.page_bytes(ppn, off,
                                                             chunk)
                else:
                    out[pos:pos + chunk] = buf[off:off + chunk]
                pos += chunk
        finally:
            ledger.total += walk_acc + copy_acc
            charged["page_table_walk"] += walk_acc
            charged["copy"] += copy_acc
        return bytes(out)

    # -- physical access (used only by VMPL-0 software, which owns all
    #    memory; still RMP-checked so the invariant holds structurally) ------

    def read_phys(self, paddr: int, length: int) -> bytes:
        """Physical read (RMP-checked at the current VMPL)."""
        self._rmp_check(paddr, length, _READ, _READ_BIT)
        return self.machine.memory.read(paddr, length)

    def write_phys(self, paddr: int, data: bytes) -> None:
        """Physical write (RMP-checked at the current VMPL)."""
        self._rmp_check(paddr, len(data), _WRITE, _WRITE_BIT)
        self.machine.memory.write(paddr, data)

    # -- SNP instructions ------------------------------------------------------

    def rmpadjust(self, *, ppn: int, target_vmpl: int, perms: Access,
                  vmsa: bool = False) -> None:
        """``RMPADJUST`` from this core's current VMPL (CPL-0 only)."""
        if self.regs.cpl != 0:
            raise GeneralProtectionFault("RMPADJUST requires CPL-0")
        try:
            self.machine.rmp.rmpadjust(executing_vmpl=self.vmpl, ppn=ppn,
                                       target_vmpl=target_vmpl, perms=perms,
                                       vmsa=vmsa)
        except NestedPageFault as fault:
            # Guest-side RMP violations are fail-stop for the CVM.
            self.machine.halt(str(fault), cause=fault)

    def pvalidate(self, *, ppn: int, validate: bool) -> None:
        """``PVALIDATE``: flip a page's validated state (CPL-0)."""
        if self.regs.cpl != 0:
            raise GeneralProtectionFault("PVALIDATE requires CPL-0")
        self.machine.rmp.pvalidate(executing_vmpl=self.vmpl, ppn=ppn,
                                   validate=validate)

    # -- MSRs -------------------------------------------------------------------

    def wrmsr_ghcb(self, gpa: int) -> None:
        """Publish the GHCB location (privileged write)."""
        regs = self.regs
        if regs.cpl != 0:
            raise GeneralProtectionFault("WRMSR requires CPL-0")
        # Charged inline, as CycleLedger.charge would: every gateway
        # switch and enclave entry publishes a GHCB.
        machine = self.machine
        ledger = machine.ledger
        cycles = machine.cost.wrmsr
        ledger.total += cycles
        ledger.by_category["msr"] += cycles
        regs.ghcb_msr = gpa

    def rdmsr_ghcb(self) -> int:
        """Read the GHCB location MSR."""
        self.machine.ledger.charge("msr", self.machine.cost.rdmsr)
        return self.regs.ghcb_msr

    def current_ghcb(self) -> Ghcb:
        """GHCB view for the published MSR value."""
        if self.regs.ghcb_msr == 0:
            raise SimulationError("GHCB MSR not initialized")
        return Ghcb(self.regs.ghcb_msr >> 12)

    # -- exits --------------------------------------------------------------------

    def vmgexit(self) -> None:
        """Non-automatic exit: hand control to the hypervisor.

        The hypervisor reads this core's GHCB, services the request, and
        re-enters the core -- possibly on a *different* VMSA (that is the
        domain-switch path).  On return, this core's register state is
        whatever instance the hypervisor chose to resume.
        """
        machine = self.machine
        ledger = machine.ledger
        cycles = machine.cost.vmgexit
        tracer = machine.tracer
        # The exit half of the switch cost (charged inline, as
        # CycleLedger.charge would), the seal and the hypervisor's turn:
        # inside a span only with tracing on.
        if tracer.enabled:
            # Attribute the span to the VMPL that *took* the exit; after
            # hw_exit the core may resume on a different instance.
            exiting_vmpl = self.instance.vmpl if self.instance else -1
            with tracer.span("hw", "VMGEXIT", vcpu=self.cpu_index,
                             vmpl=exiting_vmpl):
                ledger.total += cycles
                ledger.by_category["domain_switch"] += cycles
                self.hw_exit()
                machine.hypervisor.handle_vmgexit(self)
        else:
            ledger.total += cycles
            ledger.by_category["domain_switch"] += cycles
            self.hw_exit()
            machine.hypervisor.handle_vmgexit(self)
        instance = self.instance
        if instance is None or not instance.running:
            raise CvmHalted("hypervisor failed to resume the VCPU")

    def switch_to(self, ghcb: Ghcb, vmpl: int, *,
                  publish: bool = False) -> None:
        """Ask the hypervisor to resume this core on its ``vmpl`` instance.

        The guest half of every domain switch, and the one writer of a
        switch request: write the request for ``vmpl`` into ``ghcb`` (the
        pre-encoded frame of :data:`~repro.hw.ghcb.SWITCH_FRAMES`) and
        execute VMGEXIT.  With ``publish``, the GHCB MSR is pointed at
        ``ghcb`` first (:meth:`wrmsr_ghcb`); without it, the caller has
        armed the MSR already.
        """
        if publish:
            self.wrmsr_ghcb(ghcb.gpa)
        memory = self.machine.memory
        # ``True == 1`` and ``1.0 == 1``: only an exact int takes a
        # pre-encoded frame.
        frame = SWITCH_FRAMES.get(vmpl) if type(vmpl) is int else None
        if frame is None:
            # Not a VMPL: the hypervisor halts the CVM on this request.
            ghcb.write_message(memory, {"op": "domain_switch",
                                        "target_vmpl": vmpl})
        else:
            memory.write(ghcb.gpa, frame)
        self.vmgexit()

    def automatic_exit(self, reason: str = "interrupt") -> None:
        """Automatic exit (no GHCB protocol), e.g. a timer interrupt."""
        machine = self.machine
        exiting_vmpl = self.instance.vmpl if self.instance else -1
        tracer = machine.tracer
        span = tracer.span("hw", "AE", vcpu=self.cpu_index,
                           vmpl=exiting_vmpl, args={"reason": reason}) \
            if tracer.enabled else NULL_SPAN
        with span:
            machine.ledger.charge("exit", machine.cost.automatic_exit)
            self.hw_exit()
            machine.hypervisor.handle_automatic_exit(self, reason)

    # -- microarchitectural state -----------------------------------------------

    def wbinvd(self) -> None:
        """``WBINVD``: write back + invalidate CPU structures.

        Privileged (CPL-0); VeilS-ENC uses it at enclave exits to defeat
        residue-based side channels (paper section 10, eOPF)."""
        if self.regs.cpl != 0:
            raise GeneralProtectionFault("WBINVD requires CPL-0")
        self.machine.ledger.charge("wbinvd", self.machine.cost.wbinvd)
        self.microarch_residue.clear()
        self.flush_tlb()

    # -- timers ---------------------------------------------------------------------

    def rdtsc(self) -> int:
        """Timestamp counter: the ledger's running total."""
        self.machine.ledger.charge("compute", self.machine.cost.rdtsc)
        return self.machine.ledger.total
