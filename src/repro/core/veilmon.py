"""VeilMon: the VMPL-0 security monitor (paper section 5).

VeilMon occupies DomMON and is the only software in the CVM that can:

* create new VCPU instances (VMSAs) and hence new privilege domains;
* execute ``RMPADJUST`` against every lower VMPL;
* service the privileged functionality delegated away from the DomUNT
  kernel (``PVALIDATE`` and VCPU boot, section 5.3).

It exposes a request interface reached through per-VCPU IDCBs and
hypervisor-relayed domain switches.  Every pointer/ppn arriving from the
untrusted OS is sanitized against the protected-region map before use
(Table 1, "OS sends malicious request -> OS request sanitized").
"""

from __future__ import annotations

import typing

from ..codec import expect
from ..crypto import DhKeyPair, SecureChannel, sha256
from ..errors import SecurityViolation, SimulationError
from ..hw.ghcb import Ghcb, ghcb_view
from ..hw.memory import PAGE_SIZE, page_base
from ..hw.pagetable import GuestPageTable, LinearWindow
from ..hw.rmp import VMPL_ENC, VMPL_MON, VMPL_SER, VMPL_UNT, Access
from ..hw.vmsa import RegisterFile, Vmsa
from .idcb import Idcb

if typing.TYPE_CHECKING:
    from ..hw.platform import SevSnpMachine
    from ..hw.vcpu import VirtualCpu
    from ..hv.hypervisor import Hypervisor
    from ..kernel.kernel import Kernel
    from .services.base import ProtectedService

#: Monitor image + protected heap sizing (pages).  The paper's monitor is
#: ~4100 LoC of C; a few hundred KiB of protected memory is representative.
MON_IMAGE_PAGES = 64
MON_HEAP_PAGES = 192

#: Per-request monitor-side processing cost (dispatch, checks).
MON_DISPATCH_CYCLES = 600


class VeilMon:
    """The security monitor living in DomMON."""

    def __init__(self, machine: "SevSnpMachine", hypervisor: "Hypervisor"):
        self.machine = machine
        self.hv = hypervisor
        #: Physical pages no untrusted domain may touch.
        self.protected_ppns: set[int] = set()
        self.image_ppns: list[int] = []
        self._heap_ppns: list[int] = []
        self._heap_cursor = 0
        self.mon_table: GuestPageTable | None = None
        self.ser_table: GuestPageTable | None = None
        #: (vcpu_id, vmpl) -> Vmsa for instances VeilMon created.
        self.vmsas: dict[tuple[int, int], Vmsa] = {}
        self.mon_ghcb_ppns: dict[int, int] = {}
        self.ser_ghcb_ppns: dict[int, int] = {}
        #: Per-core OS<->Mon IDCBs (in kernel-reserved memory).
        self.os_idcbs: dict[int, Idcb] = {}
        #: Per-core OS<->SER IDCBs.
        self.ser_idcbs: dict[int, Idcb] = {}
        #: Per-core SER<->MON IDCBs (in DomSER-protected memory).
        self.monser_idcbs: dict[int, Idcb] = {}
        self.services: dict[str, "ProtectedService"] = {}
        #: Handlers for requests served in DomSER (protected services).
        self.ser_handlers: dict[str, typing.Callable] = {}
        self._handlers: dict[str, typing.Callable] = {
            "ping": self._handle_ping,
            "pvalidate": self._handle_pvalidate,
            "boot_vcpu": self._handle_boot_vcpu,
            "create_vmsa": self._handle_create_vmsa,
            "get_protected_map": self._handle_get_protected_map,
            "attest": self._handle_attest,
            "monitor_stats": self._handle_stats,
            "user_channel_init": self._handle_user_channel_init,
            "user_channel_recv": self._handle_user_channel_recv,
        }
        self.kernel: "Kernel | None" = None
        # Seeded, not secrets-drawn: the public half rides in attestation
        # replies over the chaos fabric, and replayed seeds must see
        # byte-identical transcripts (monitor entropy is measured state).
        self.dh = DhKeyPair.from_seed(b"veilmon")
        self.user_channel: SecureChannel | None = None
        self.request_count = 0
        self.initialized = False

    # ------------------------------------------------------------------
    # Protected memory
    # ------------------------------------------------------------------

    def reserve_protected_frames(self, count: int, label: str) -> list[int]:
        """Allocate frames and mark them protected from DomUNT/DomENC."""
        ppns = self.machine.frames.alloc_many(count, label)
        self.protected_ppns.update(ppns)
        return ppns

    def heap_alloc(self, count: int) -> list[int]:
        """Allocate protected pages from the monitor heap (for enclave
        page-table clones, service metadata, ...)."""
        if self._heap_cursor + count > len(self._heap_ppns):
            raise SimulationError("VeilMon protected heap exhausted")
        out = self._heap_ppns[self._heap_cursor:self._heap_cursor + count]
        self._heap_cursor += count
        return out

    def is_protected(self, ppn: int) -> bool:
        """Whether a physical page is in the protected set."""
        return ppn in self.protected_ppns

    def sanitize_ppn_range(self, ppns) -> None:
        """Reject OS-supplied physical pointers into protected regions."""
        for ppn in ppns:
            if self.is_protected(int(ppn)):
                raise SecurityViolation(
                    f"OS-supplied pointer targets protected page "
                    f"{int(ppn):#x}")
            if self.machine.rmp.peek(int(ppn)).vmsa:
                raise SecurityViolation(
                    f"OS-supplied pointer targets a VMSA page {int(ppn):#x}")

    # ------------------------------------------------------------------
    # Boot-time initialization (runs in DomMON on the boot core)
    # ------------------------------------------------------------------

    def initialize(self, core: "VirtualCpu") -> None:
        """Set up monitor memory, per-core replicas, and GHCBs/IDCBs."""
        if self.initialized:
            raise SimulationError("VeilMon already initialized")
        if core.vmpl != VMPL_MON:
            raise SecurityViolation("VeilMon must initialize at VMPL-0")
        # Accept all guest memory (launch-time PVALIDATE sweep).
        self.machine.rmp.bulk_assign_validate()
        self._mark_existing_vmsas()
        # Monitor image + heap.
        self.image_ppns = self.reserve_protected_frames(MON_IMAGE_PAGES,
                                                        "veilmon-image")
        self._heap_ppns = self.reserve_protected_frames(MON_HEAP_PAGES,
                                                        "veilmon-heap")
        self._write_image(core, self.image_ppns, b"VEILMON!")
        # Monitor and service address spaces: full direct map.
        self.mon_table = self._new_direct_table()
        self.ser_table = self._new_direct_table()
        boot_vmsa = core.instance
        assert boot_vmsa is not None
        boot_vmsa.regs.cr3 = self.mon_table.root_ppn
        core.regs.cr3 = self.mon_table.root_ppn
        self.vmsas[(boot_vmsa.vcpu_id, VMPL_MON)] = boot_vmsa
        self._setup_ghcbs(core)
        self.initialized = True

    def _mark_existing_vmsas(self) -> None:
        for ppn in self.machine.vmsa_objects:
            self.machine.rmp.install_vmsa(ppn)

    def _new_direct_table(self) -> GuestPageTable:
        table = self.machine.create_page_table()
        # The table's backing frame is monitor state: protect it, or the
        # OS could rewrite trusted translations (section 8.3, attack 1).
        self.protected_ppns.add(table.root_ppn)
        table.add_window(LinearWindow(
            base_vpn=0xffff_8880_0000_0000 >> 12,
            count=self.machine.num_pages, ppn_base=0, writable=True,
            user=False, nx=True))
        return table

    def _write_image(self, core: "VirtualCpu", ppns: list[int],
                     tag: bytes) -> None:
        pattern = (tag * (PAGE_SIZE // len(tag) + 1))[:PAGE_SIZE]
        for ppn in ppns:
            core.write_phys(page_base(ppn), pattern)

    def _setup_ghcbs(self, core: "VirtualCpu") -> None:
        """Shared GHCB pages for the MON and SER instances of every core."""
        for cpu_index in range(len(self.machine.cores)):
            mon_ppn = self.machine.frames.alloc("mon-ghcb")
            self.machine.rmp.share(mon_ppn)
            self.mon_ghcb_ppns[cpu_index] = mon_ppn
            self.hv_register_ghcb(mon_ppn, cpu_index, {
                (VMPL_MON, VMPL_SER), (VMPL_MON, VMPL_ENC),
                (VMPL_MON, VMPL_UNT)})
            ser_ppn = self.machine.frames.alloc("ser-ghcb")
            self.machine.rmp.share(ser_ppn)
            self.ser_ghcb_ppns[cpu_index] = ser_ppn
            self.hv_register_ghcb(ser_ppn, cpu_index, {
                (VMPL_SER, VMPL_MON), (VMPL_SER, VMPL_UNT),
                (VMPL_SER, VMPL_ENC)})
        core.wrmsr_ghcb(page_base(self.mon_ghcb_ppns[core.cpu_index]))

    def hv_register_ghcb(self, ppn: int, vcpu_id: int, pairs: set) -> None:
        """Register a GHCB switch policy with the hypervisor (MSR protocol
        analog; the hypervisor is untrusted bookkeeping here)."""
        from ..hv.hypervisor import GhcbPolicy
        self.hv.ghcb_policies[ppn] = GhcbPolicy(vcpu_id=vcpu_id,
                                                allowed_switches=set(pairs))

    # ------------------------------------------------------------------
    # Domain / VCPU-instance creation (the four steps of section 5.2)
    # ------------------------------------------------------------------

    def create_domain_instance(self, core: "VirtualCpu", *, vcpu_id: int,
                               vmpl: int, cr3: int = 0, rip: int = 0,
                               cpl: int = 0, ghcb_gpa: int = 0) -> Vmsa:
        """Create and register a VCPU instance at ``vmpl``.

        Step 1: allocate a VMSA page and mark it via ``RMPADJUST``;
        Step 2/3: initialize architectural state (cr3, rip, CPL, GHCB MSR);
        Step 4: register it with the hypervisor through a hypercall.
        """
        if core.vmpl != VMPL_MON:
            raise SecurityViolation(
                "only DomMON may create VCPU instances")
        ppn = self.machine.frames.alloc("vmsa")
        self.protected_ppns.add(ppn)
        # Defence in depth: beyond the VMSA sealing bit, explicitly
        # revoke every lower VMPL's permissions on the page (the boot
        # sweep's defaults would otherwise linger in the RMP entry).
        for lower_vmpl in (VMPL_SER, VMPL_ENC, VMPL_UNT):
            if lower_vmpl != vmpl:
                core.rmpadjust(ppn=ppn, target_vmpl=lower_vmpl,
                               perms=Access.NONE)
        core.rmpadjust(ppn=ppn, target_vmpl=vmpl, perms=Access.NONE,
                       vmsa=True)
        regs = RegisterFile(rip=rip, cpl=cpl, cr3=cr3, ghcb_msr=ghcb_gpa)
        vmsa = Vmsa(vcpu_id=vcpu_id, vmpl=vmpl, ppn=ppn, regs=regs)
        self.machine.vmsa_objects[ppn] = vmsa
        self.vmsas[(vcpu_id, vmpl)] = vmsa
        ghcb = self._mon_ghcb(core)
        ghcb.write_message(self.machine.memory,
                           {"op": "register_vmsa", "vmsa_ppn": ppn})
        core.vmgexit()
        return vmsa

    def create_core_replicas(self, core: "VirtualCpu", vcpu_id: int,
                             *, unt_cr3: int = 0,
                             unt_ghcb_gpa: int = 0) -> None:
        """Replicate one logical VCPU into MON, SER, and UNT instances."""
        if (vcpu_id, VMPL_MON) not in self.vmsas:
            self.create_domain_instance(
                core, vcpu_id=vcpu_id, vmpl=VMPL_MON,
                cr3=self.mon_table.root_ppn,
                ghcb_gpa=page_base(self.mon_ghcb_ppns[vcpu_id]))
        if (vcpu_id, VMPL_SER) not in self.vmsas:
            self.create_domain_instance(
                core, vcpu_id=vcpu_id, vmpl=VMPL_SER,
                cr3=self.ser_table.root_ppn,
                ghcb_gpa=page_base(self.ser_ghcb_ppns[vcpu_id]))
        if (vcpu_id, VMPL_UNT) not in self.vmsas:
            self.create_domain_instance(
                core, vcpu_id=vcpu_id, vmpl=VMPL_UNT, cr3=unt_cr3,
                ghcb_gpa=unt_ghcb_gpa)

    # ------------------------------------------------------------------
    # Protection sweeps (boot cost dominated by RMPADJUST, section 9.1)
    # ------------------------------------------------------------------

    def apply_protection_sweeps(self) -> None:
        """Grant DomSER everything but monitor memory, DomUNT everything
        but protected memory; DomENC starts with no permissions."""
        mon_private = set(self.image_ppns) | set(self._heap_ppns)
        self.machine.rmp.bulk_rmpadjust(
            executing_vmpl=VMPL_MON, target_vmpl=VMPL_SER,
            perms=Access.all(), exclude=mon_private)
        self.machine.rmp.bulk_rmpadjust(
            executing_vmpl=VMPL_MON, target_vmpl=VMPL_UNT,
            perms=Access.all(), exclude=set(self.protected_ppns))

    # ------------------------------------------------------------------
    # IDCBs
    # ------------------------------------------------------------------

    def setup_idcbs(self) -> None:
        """Allocate per-core IDCBs: OS<->Mon and OS<->SER blocks live in
        kernel-accessible memory (the less-privileged side, section 5.2)."""
        from .idcb import DEFAULT_IDCB_PAGES
        for cpu_index in range(len(self.machine.cores)):
            os_ppns = self.machine.frames.alloc_many(DEFAULT_IDCB_PAGES,
                                                     "idcb-os-mon")
            self.os_idcbs[cpu_index] = Idcb(os_ppns, low_vmpl=VMPL_UNT,
                                            high_vmpl=VMPL_MON)
            ser_ppns = self.machine.frames.alloc_many(DEFAULT_IDCB_PAGES,
                                                      "idcb-os-ser")
            self.ser_idcbs[cpu_index] = Idcb(ser_ppns, low_vmpl=VMPL_UNT,
                                             high_vmpl=VMPL_SER)
            monser_ppns = self.reserve_protected_frames(
                DEFAULT_IDCB_PAGES, "idcb-ser-mon")
            self.monser_idcbs[cpu_index] = Idcb(
                monser_ppns, low_vmpl=VMPL_SER, high_vmpl=VMPL_MON)

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------

    def register_service(self, service: "ProtectedService") -> None:
        """Install a protected service's DomSER handlers."""
        self.services[service.name] = service
        for op, handler in service.handlers().items():
            if op in self.ser_handlers:
                raise SimulationError(f"duplicate handler for {op!r}")
            self.ser_handlers[op] = handler

    # ------------------------------------------------------------------
    # Request dispatch (monitor body)
    # ------------------------------------------------------------------

    def _mon_ghcb(self, core: "VirtualCpu") -> Ghcb:
        return ghcb_view(self.mon_ghcb_ppns[core.cpu_index])

    def switch_from_mon(self, core: "VirtualCpu", target_vmpl: int) -> None:
        """Request the hypervisor switch this core out of DomMON."""
        core.switch_to(self._mon_ghcb(core), target_vmpl, publish=True)

    def on_entry(self, core: "VirtualCpu",
                 from_vmpl: int = VMPL_UNT) -> None:
        """Monitor body: runs whenever a switch lands on a MON instance.

        Reads the request from the caller's IDCB, dispatches, writes the
        reply, and switches back to the calling domain.
        """
        if core.vmpl != VMPL_MON:
            raise SimulationError("monitor entered outside DomMON")
        machine = self.machine
        machine.ledger.charge("monitor", MON_DISPATCH_CYCLES)
        self.request_count += 1
        idcb = (self.monser_idcbs if from_vmpl == VMPL_SER
                else self.os_idcbs)[core.cpu_index]
        request, reply_to, error = self._read_request(idcb, from_vmpl)
        tracer = machine.tracer
        if not tracer.enabled:
            self._respond(core, self._handlers, request, error, idcb,
                          self.mon_ghcb_ppns, reply_to)
            return
        # Span covers the whole DomMON residence: dispatch, reply write,
        # and the switch back out.
        op = str(request.get("op", ""))
        tracer.metrics.count("mon_request", op)
        with tracer.span("mon", f"request:{op}", vcpu=core.cpu_index,
                         vmpl=VMPL_MON, args={"from_vmpl": from_vmpl}):
            self._respond(core, self._handlers, request, error, idcb,
                          self.mon_ghcb_ppns, reply_to)

    def _respond(self, core: "VirtualCpu", handlers: dict, request: dict,
                 error: dict | None, idcb: Idcb, ghcb_ppns: dict,
                 reply_to: int) -> None:
        """The rest of a monitor or service body: dispatch the request
        (unless it was malformed), write the reply, and switch back to
        the caller through this domain's GHCB (``ghcb_ppns``, per core)."""
        reply = error or self._dispatch(core, handlers, request)
        idcb.write_reply(self.machine.memory, reply)
        core.switch_to(ghcb_view(ghcb_ppns[core.cpu_index]), reply_to,
                       publish=True)

    def _read_request(self, idcb: Idcb,
                      reply_to: int) -> tuple[dict, int, dict | None]:
        """Decode the caller's request without raising past the reply path.

        The less-privileged side owns the IDCB pages and may have written
        any bytes into the request slot.  Returns ``(request, reply_to,
        error_reply)``: a length header the slot cannot hold (the slot's
        :class:`~repro.errors.SimulationError`), a request that is not a
        JSON object, or one whose ``_reply_to`` is not an integer, yields
        ``({}, reply_to, error)`` so the body still replies and switches
        back to the caller.
        """
        try:
            request = idcb.read_request(self.machine.memory)
            return request, int(request.get("_reply_to", reply_to)), None
        except (SimulationError, TypeError, ValueError,
                OverflowError) as bad:
            return {}, reply_to, {"status": "error",
                                  "reason": f"malformed request: {bad!r}"}

    @staticmethod
    def _dispatch(core, handlers: dict, request: dict) -> dict:
        """Run a request handler, converting every failure into a reply.

        A malformed request must never crash past the reply path: the
        monitor/service always writes a reply and switches back, so the
        core is never left stranded in a trusted domain.  Only the
        fail-stop :class:`~repro.errors.CvmHalted` propagates.
        """
        handler = handlers.get(request.get("op", ""))
        if handler is None:
            return {"status": "error",
                    "reason": f"unknown op {request.get('op')!r}"}
        try:
            return handler(core, request)
        except SecurityViolation as denied:
            return {"status": "denied", "reason": str(denied)}
        except (KeyError, ValueError, TypeError, IndexError,
                OverflowError, AssertionError) as bad:
            return {"status": "error",
                    "reason": f"malformed request: {bad!r}"}

    # -- DomSER dispatch (protected services) ------------------------------

    def switch_from_ser(self, core: "VirtualCpu", target_vmpl: int) -> None:
        """Request the hypervisor switch this core out of DomSER."""
        core.switch_to(ghcb_view(self.ser_ghcb_ppns[core.cpu_index]),
                       target_vmpl, publish=True)

    def on_ser_entry(self, core: "VirtualCpu",
                     idcb: "Idcb | None" = None) -> None:
        """Protected-service body: runs on a SER instance after a switch.

        ``idcb`` defaults to the per-core OS<->SER block; enclave-initiated
        requests (permission changes, section 6.2) arrive through the
        enclave's own IDCB instead.
        """
        if core.vmpl != VMPL_SER:
            raise SimulationError("service entered outside DomSER")
        machine = self.machine
        machine.ledger.charge("service", MON_DISPATCH_CYCLES)
        if idcb is None:
            idcb = self.ser_idcbs[core.cpu_index]
        request, reply_to, error = self._read_request(idcb, VMPL_UNT)
        tracer = machine.tracer
        if not tracer.enabled:
            self._respond(core, self.ser_handlers, request, error, idcb,
                          self.ser_ghcb_ppns, reply_to)
            return
        op = str(request.get("op", ""))
        tracer.metrics.count("ser_request", op)
        with tracer.span("ser", f"request:{op}", vcpu=core.cpu_index,
                         vmpl=VMPL_SER):
            self._respond(core, self.ser_handlers, request, error, idcb,
                          self.ser_ghcb_ppns, reply_to)

    def ser_call_monitor(self, core: "VirtualCpu", request: dict) -> dict:
        """Call VeilMon from DomSER (e.g. VMSA creation for enclaves)."""
        if core.vmpl != VMPL_SER:
            raise SimulationError("ser_call_monitor outside DomSER")
        request = dict(request)
        request["_reply_to"] = VMPL_SER
        idcb = self.monser_idcbs[core.cpu_index]
        idcb.write_request(self.machine.memory, request)
        self.switch_from_ser(core, VMPL_MON)
        self.on_entry(core, from_vmpl=VMPL_SER)
        return idcb.read_reply(self.machine.memory)

    # -- built-in handlers ---------------------------------------------------

    def _handle_ping(self, core, request: dict) -> dict:
        return {"status": "ok", "echo": request.get("payload")}

    def _handle_pvalidate(self, core, request: dict) -> dict:
        """Delegated PVALIDATE (section 5.3): check, then execute."""
        ppn = int(request["ppn"])
        self.sanitize_ppn_range([ppn])
        core.pvalidate(ppn=ppn, validate=bool(request["validate"]))
        return {"status": "ok"}

    def _handle_boot_vcpu(self, core, request: dict) -> dict:
        """Delegated VCPU boot (section 5.3): create the new instance at
        DomUNT only, plus trusted-domain replicas for the new VCPU.

        Every field is read as a JSON integer only.  A core that cannot
        be started -- a negative or missing one, the requester's own, one
        that already runs, or one whose DomUNT instance already runs --
        gets an error reply before any replica is created or any exit is
        taken: the hypervisor would halt the CVM on that ``start_vcpu``.
        """
        vcpu_id = expect(request["vcpu_id"], int, "vcpu_id")
        if expect(request.get("vmpl", VMPL_UNT), int, "vmpl") != VMPL_UNT:
            raise SecurityViolation(
                "OS may only boot VCPUs into DomUNT")
        unt_cr3 = expect(request.get("cr3", 0), int, "cr3")
        unt_ghcb_gpa = expect(request.get("ghcb_gpa", 0), int, "ghcb_gpa")
        cores = self.machine.cores
        if not 0 <= vcpu_id < len(cores):
            return {"status": "error", "reason": "no such core"}
        started = cores[vcpu_id]
        if started is core:
            return {"status": "error",
                    "reason": f"core {vcpu_id} is the requesting core"}
        unt = self.vmsas.get((vcpu_id, VMPL_UNT))
        if ((started.instance is not None and started.instance.running)
                or (unt is not None and unt.running)):
            return {"status": "error",
                    "reason": f"vcpu {vcpu_id} is already running"}
        self.create_core_replicas(core, vcpu_id, unt_cr3=unt_cr3,
                                  unt_ghcb_gpa=unt_ghcb_gpa)
        ghcb = self._mon_ghcb(core)
        ghcb.write_message(self.machine.memory, {
            "op": "start_vcpu", "vcpu_id": vcpu_id, "vmpl": VMPL_UNT})
        core.vmgexit()
        return {"status": "ok"}

    def _handle_create_vmsa(self, core, request: dict) -> dict:
        """VMSA creation on behalf of a protected service (enclave
        domains).  Only DomSER may request this, and never for a VMPL more
        privileged than DomENC -- the OS cannot reach this path at all
        (Table 1 row "Create VCPU at DomMON/DomSER -> Control creation")."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_SER:
            raise SecurityViolation("create_vmsa is service-only")
        vmpl = int(request["vmpl"])
        if vmpl < VMPL_ENC:
            raise SecurityViolation(
                "services may only request DomENC/DomUNT instances")
        vmsa = self.create_domain_instance(
            core, vcpu_id=int(request["vcpu_id"]), vmpl=vmpl,
            cr3=int(request.get("cr3", 0)),
            rip=int(request.get("rip", 0)),
            cpl=int(request.get("cpl", 3)),
            ghcb_gpa=int(request.get("ghcb_gpa", 0)))
        # Enclave instances are registered with the hypervisor only when
        # the OS schedules that enclave (enc_schedule); drop the eager
        # registration for non-UNT VMPLs.
        return {"status": "ok", "vmsa_ppn": vmsa.ppn}

    def _handle_get_protected_map(self, core, request: dict) -> dict:
        """Expose the protected-region map to protected services so they
        can sanitize OS pointers too (section 8.1)."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_SER:
            raise SecurityViolation("protected map is service-only")
        return {"status": "ok",
                "protected": sorted(self.protected_ppns)}

    def _handle_stats(self, core, request: dict) -> dict:
        """Operational introspection: non-sensitive monitor statistics.

        Exposes only aggregate counters (no addresses of protected
        structures beyond counts), useful for guest-side health checks.
        """
        return {
            "status": "ok",
            "requests_served": self.request_count,
            "protected_pages": len(self.protected_ppns),
            "instances": len(self.vmsas),
            "services": sorted(self.services),
            "heap_pages_used": self._heap_cursor,
            "heap_pages_total": len(self._heap_ppns),
        }

    def _handle_attest(self, core, request: dict) -> dict:
        """Produce a VMPL-0 attestation report for the remote user.

        The request travels through the untrusted OS, but the report is
        hardware-signed with the *actual* requesting VMPL (DomMON), so the
        OS cannot impersonate the monitor.
        """
        report = self.request_attestation(core)
        report["dh_public_hex"] = self.dh_public_blob().hex()
        return {"status": "ok", "report": report}

    def _handle_user_channel_init(self, core, request: dict) -> dict:
        """Install the remote user's DH public value (user-initiated)."""
        self.establish_user_channel(
            bytes.fromhex(request["peer_public_hex"]))
        return {"status": "ok"}

    def _handle_user_channel_recv(self, core, request: dict) -> dict:
        """Deliver a sealed remote-user record to VeilMon (transported by
        the untrusted kernel's network stack)."""
        if self.user_channel is None:
            raise SecurityViolation("secure channel not established")
        wire = bytes.fromhex(request["record_hex"])
        payload = self.user_channel.receive(wire)   # raises on tampering
        return {"status": "ok", "payload": payload}

    # ------------------------------------------------------------------
    # Attestation & the remote-user channel (section 5.1)
    # ------------------------------------------------------------------

    def request_attestation(self, core: "VirtualCpu") -> dict:
        """Ask the PSP (via the hypervisor) for a signed report binding
        this monitor's DH public value at VMPL-0."""
        if core.vmpl != VMPL_MON:
            raise SecurityViolation("attestation must come from DomMON")
        public_blob = self.dh_public_blob()
        ghcb = self._mon_ghcb(core)
        ghcb.write_message(self.machine.memory, {
            "op": "attestation_report",
            "report_data_hex": sha256(public_blob).hex()})
        core.vmgexit()
        return ghcb.read_message(self.machine.memory)

    def dh_public_blob(self) -> bytes:
        """VeilMon's DH public value as transportable bytes."""
        return self.dh.public.to_bytes(256, "big")

    def establish_user_channel(self, peer_public_blob: bytes) -> None:
        """Derive and install the remote-user channel key."""
        key = self.dh.shared_key(int.from_bytes(peer_public_blob, "big"))
        self.user_channel = SecureChannel(key, role="responder")

    def channel_send(self, payload: dict) -> bytes:
        """Seal a payload for the remote user."""
        if self.user_channel is None:
            raise SecurityViolation("secure channel not established")
        return self.user_channel.send(payload)
