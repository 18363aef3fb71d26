"""The untrusted KVM-like hypervisor.

Implements the three host-side changes the paper makes to KVM (section 7):

1. maintain VMSAs for newly-created domains (a per-VCPU registry keyed by
   VMPL, the analog of the ``struct vcpu_svm`` change);
2. hypercall handling for domain switches (with the per-GHCB switch policy
   from section 6.2 -- user-mapped GHCBs may only switch DomUNT <-> DomENC);
3. relaying automatic interrupt exits taken during enclave execution to
   DomUNT.

Which side recognizes which GHCB frame: the guest writes a domain-switch
request as one of the four pre-encoded frames
(:meth:`VirtualCpu.switch_to <repro.hw.vcpu.VirtualCpu.switch_to>`), and
:meth:`Hypervisor.handle_vmgexit` looks its payload bytes up in
:data:`~repro.hw.ghcb.SWITCH_PAYLOADS` before it decodes anything, so a
switch goes straight to the policy check and the VMENTER.  Every other
payload, a switch request spelled any other way included, is decoded by
:func:`~repro.hw.ghcb.decode_payload` and dispatched to an ``_op_*``
handler; ``_op_domain_switch`` ends in the same switch body.

The hypervisor is *untrusted*: it also exposes attack knobs (refusing the
interrupt relay, attempting VMSA tampering through host memory access) used
by the section 8 experiments.  Host access to guest memory goes through
:meth:`host_read` / :meth:`host_write`, which enforce the SEV-SNP rule that
assigned guest pages are inaccessible from outside.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import dataclass, field

from ..errors import AttestationError, NestedPageFault, \
    SecurityViolation, SimulationError
from ..hw.ghcb import (FRAME_HEADER, SWITCH_PAYLOADS, Ghcb, decode_payload,
                      ghcb_view)
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE
from ..hw.pagetable import PageFault
from ..hw.rmp import NUM_VMPLS, VMPL_ENC, VMPL_MON, VMPL_UNT, vmpl_name
from ..hw.vmsa import Vmsa
from ..trace import NULL_SPAN
from .attestation import SecureProcessor
from .devices import VirtioConsole

if typing.TYPE_CHECKING:
    from ..hw.platform import SevSnpMachine
    from ..hw.vcpu import VirtualCpu


class HostAccessBlocked(SecurityViolation):
    """SEV-SNP blocked a host-side access to assigned guest memory."""


#: Exit-log retention: ``Hypervisor.exit_log`` keeps the tags of the last
#: 512 exits, enough for every "recent exits" assertion in the test and
#: attack suites while bounding memory on multi-thousand-switch runs.
#: Each core counts its own exits (``VirtualCpu.exit_count``), and the
#: full history lives in the machine's tracer.
EXIT_LOG_CAPACITY = 512

#: The exit-log tag of a domain-switch request.
_SWITCH_TAG = "vmgexit:domain_switch"

#: ``(from_vmpl, to_vmpl) -> "DomX->DomY"``, the ``switch`` metric key.
_SWITCH_METRIC = {(src, dst): f"{vmpl_name(src)}->{vmpl_name(dst)}"
                  for src in range(NUM_VMPLS) for dst in range(NUM_VMPLS)}


@dataclass
class GhcbPolicy:
    """Per-GHCB switch policy installed at registration time."""

    vcpu_id: int
    #: Allowed (from_vmpl, to_vmpl) transitions via this GHCB.
    allowed_switches: set = field(default_factory=set)


class Hypervisor:
    """Host VMM servicing one confidential VM."""

    def __init__(self, machine: "SevSnpMachine",
                 psp: SecureProcessor | None = None):
        self.machine = machine
        machine.hypervisor = self
        self.psp = psp or SecureProcessor()
        self.console = VirtioConsole()
        #: (vcpu_id, vmpl) -> VMSA.  The "struct vcpu_svm" extension.
        self.vmsas: dict[tuple[int, int], Vmsa] = {}
        #: ghcb ppn -> policy, for GHCBs registered for domain switching.
        self.ghcb_policies: dict[int, GhcbPolicy] = {}
        #: VMPL that receives relayed interrupts during enclave execution.
        self.interrupt_relay_vmpl = VMPL_UNT
        #: Called (core) after an interrupt is relayed to DomUNT so the
        #: guest kernel model can account handler work before the enclave
        #: is resumed.  Installed by the kernel at boot.
        self.interrupt_return_hook = None
        # ---- attack knobs (section 8) -------------------------------------
        self.refuse_interrupt_relay = False
        #: Byzantine-hypervisor knob (veil-chaos): corrupt the next N
        #: attestation-report replies written back through the GHCB.
        #: The PSP signature no longer verifies, so the relying party
        #: detects the tampering and refuses the handshake.
        self.corrupt_ghcb_replies = 0
        #: Attestation replies corrupted so far (detection accounting).
        self.ghcb_replies_corrupted = 0
        self.exit_log: deque[str] = deque(maxlen=EXIT_LOG_CAPACITY)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def launch(self, boot_image: bytes, *, boot_vcpu_id: int = 0) -> Vmsa:
        """Measure the boot image and create the boot VCPU at VMPL-0.

        Returns the boot VMSA; the caller (the boot code model) enters it
        on core 0.  Per the paper, the boot VCPU instance is the only one
        the hypervisor creates, and it is always VMPL-0.
        """
        self.psp.measure_launch(boot_image)
        vmsa = self._materialize_vmsa(vcpu_id=boot_vcpu_id,
                                      vmpl=VMPL_MON)
        self.vmsas[(boot_vcpu_id, VMPL_MON)] = vmsa
        return vmsa

    def _materialize_vmsa(self, *, vcpu_id: int, vmpl: int) -> Vmsa:
        ppn = self.machine.frames.alloc("vmsa")
        self.machine.rmp.install_vmsa(ppn)
        vmsa = Vmsa(vcpu_id=vcpu_id, vmpl=vmpl, ppn=ppn)
        self.machine.vmsa_objects[ppn] = vmsa
        return vmsa

    # ------------------------------------------------------------------
    # Host-side memory access (SEV-SNP enforcement)
    # ------------------------------------------------------------------

    def host_read(self, paddr: int, length: int) -> bytes:
        """Read guest physical memory from the host side."""
        self._host_check(paddr, length, "read")
        return self.machine.memory.read(paddr, length)

    def host_write(self, paddr: int, data: bytes) -> None:
        """Write guest physical memory from the host side."""
        self._host_check(paddr, len(data), "write")
        self.machine.memory.write(paddr, data)

    def _host_check(self, paddr: int, length: int, what: str) -> None:
        from ..hw.memory import pages_spanned
        for ppn in pages_spanned(paddr, length):
            ent = self.machine.rmp.peek(ppn)
            if ent.shared:
                continue
            if ent.assigned or ent.vmsa:
                raise HostAccessBlocked(
                    f"host {what} of assigned guest page {ppn:#x} blocked "
                    "by SEV-SNP")

    # ------------------------------------------------------------------
    # VMGEXIT dispatch
    # ------------------------------------------------------------------

    def handle_vmgexit(self, core: "VirtualCpu") -> None:
        """Service a non-automatic exit.  ``core`` has already hw_exit()ed.

        Reads the GHCB frame in two charged reads (length header, then
        payload).  A payload in :data:`~repro.hw.ghcb.SWITCH_PAYLOADS`
        goes straight to :meth:`_switch`; any other is decoded and
        dispatched to its ``_op_*`` handler.
        """
        exited = core.instance
        if exited is None:
            raise SimulationError("vmgexit with no exited instance")
        machine = self.machine
        ghcb_gpa = exited.regs.ghcb_msr
        if ghcb_gpa == 0:
            machine.halt("VMGEXIT with no GHCB published")
        ppn = ghcb_gpa >> PAGE_SHIFT
        gpa = ppn << PAGE_SHIFT
        memory = machine.memory
        # The GHCB is a shared page: anything may be in it, and the MSR
        # may point anywhere.  A GHCB page outside physical memory, a
        # frame whose length header does not fit the page, bytes that do
        # not decode to a JSON object, an op whose fields do not parse
        # (or have the wrong JSON type), or a request the PSP refuses,
        # are errant hypercalls and crash the CVM (section 6.2).
        if not 0 <= ppn < memory.num_pages:
            machine.halt(f"malformed GHCB message: GHCB page {ppn:#x} is "
                         "outside physical memory")
        length = int.from_bytes(memory.read(gpa, FRAME_HEADER), "little")
        if length == 0 or length > PAGE_SIZE - FRAME_HEADER:
            machine.halt(f"malformed GHCB message: length header {length} "
                         f"outside 1..{PAGE_SIZE - FRAME_HEADER}")
        payload = memory.read(gpa + FRAME_HEADER, length)
        target_vmpl = SWITCH_PAYLOADS.get(payload)
        if target_vmpl is not None:
            self.exit_log.append(_SWITCH_TAG)
            tracer = machine.tracer
            if tracer.enabled:
                tracer.metrics.count("vmgexit", "domain_switch")
                with self.trace_span(core, exited, "op:domain_switch",
                                     target_vmpl=target_vmpl):
                    self._switch(core, exited, ppn, target_vmpl)
            else:
                self._switch(core, exited, ppn, target_vmpl)
            return
        try:
            message = decode_payload(payload)
        except ValueError as bad:
            machine.halt(f"malformed GHCB message: {bad}", cause=bad)
        if not isinstance(message, dict):
            machine.halt("malformed GHCB message: a JSON "
                         f"{type(message).__name__}, not an object")
        op = message.get("op")
        known = _VMGEXIT_OPS.get(op) if type(op) is str else None
        tag, handler_name = known or (f"vmgexit:{op}", None)
        self.exit_log.append(tag)
        tracer = machine.tracer
        if tracer.enabled:
            tracer.metrics.count("vmgexit", str(op))
        if handler_name is None:
            machine.halt(f"unknown VMGEXIT op {op!r}")
        try:
            getattr(self, handler_name)(core, exited, ghcb_view(ppn),
                                        message)
        except (KeyError, TypeError, ValueError, OverflowError,
                AttestationError) as bad:
            machine.halt(f"malformed GHCB message for op {op!r}: "
                         f"{bad!r}", cause=bad)

    def trace_span(self, core: "VirtualCpu", exited: Vmsa, name: str,
                   **args):
        """Open an ``hv``-category span attributed to the exited domain.

        Every ``_op_*`` handler opens one of these (enforced by
        veil-lint's ``trace-span`` rule), so hypervisor-side servicing of
        each exit is visible per-operation in exported traces.
        """
        return self.machine.tracer.span(
            "hv", name, vcpu=core.cpu_index, vmpl=exited.vmpl,
            args=args or None)

    def _enter(self, core: "VirtualCpu", vmsa: Vmsa) -> None:
        """VMENTER ``core`` on ``vmsa`` (charges the enter half-cost)."""
        self.machine.ledger.charge("domain_switch", self.machine.cost.vmenter)
        core.hw_enter(vmsa)

    # -- operations -------------------------------------------------------

    def _switch(self, core: "VirtualCpu", exited: Vmsa, ghcb_ppn: int,
                target_vmpl: int) -> None:
        """The domain switch: check the GHCB's policy, enter the target.

        The one body of every switch request, recognized from its bytes
        by :meth:`handle_vmgexit` or decoded by
        :meth:`_op_domain_switch`; both open the ``op:domain_switch``
        span around it when tracing is on.
        """
        machine = self.machine
        policy = self.ghcb_policies.get(ghcb_ppn)
        if policy is None:
            machine.halt(f"domain switch via unregistered GHCB {ghcb_ppn:#x}")
        pair = (exited.vmpl, target_vmpl)
        if pair not in policy.allowed_switches:
            # Paper section 6.2: errant hypercalls crash the CVM.
            machine.halt(f"GHCB {ghcb_ppn:#x} does not permit switch "
                         f"VMPL-{pair[0]} -> VMPL-{pair[1]}")
        target = self.vmsas.get((exited.vcpu_id, target_vmpl))
        if target is None:
            machine.halt(f"no VMSA for vcpu {exited.vcpu_id} at "
                         f"VMPL-{target_vmpl}")
        tracer = machine.tracer
        if tracer.enabled:
            tracer.metrics.count("switch", _SWITCH_METRIC[pair])
        # VMENTER: the enter half of the switch cost, charged inline as
        # _enter's CycleLedger.charge would, then the register load.
        ledger = machine.ledger
        cycles = machine.cost.vmenter
        ledger.total += cycles
        ledger.by_category["domain_switch"] += cycles
        core.hw_enter(target)

    def _op_domain_switch(self, core, exited: Vmsa, ghcb: Ghcb,
                          message: dict) -> None:
        """A switch request the guest spelled another way (the codec's
        path): parse the target, then the same :meth:`_switch`."""
        target_vmpl = _expect(message["target_vmpl"], int, "target_vmpl")
        with self.trace_span(core, exited, "op:domain_switch",
                             target_vmpl=target_vmpl):
            self._switch(core, exited, ghcb.ppn, target_vmpl)

    def _op_register_vmsa(self, core, exited: Vmsa, ghcb: Ghcb,
                          message: dict) -> None:
        """Guest VMPL-0 software created a VMSA; record it (KVM change #1).

        The hardware analog of the check below is that VMENTER validates
        the target page really is an RMP-marked VMSA page; a forged
        registration therefore cannot produce a runnable instance.
        """
        ppn = _expect(message["vmsa_ppn"], int, "vmsa_ppn")
        with self.trace_span(core, exited, "op:register_vmsa", ppn=ppn):
            self._check_pages("register_vmsa", (ppn,))
            ent = self.machine.rmp.peek(ppn)
            vmsa = self.machine.vmsa_objects.get(ppn)
            if vmsa is None or not ent.vmsa:
                self.machine.halt(
                    f"register_vmsa on non-VMSA page {ppn:#x}")
            self.vmsas[(vmsa.vcpu_id, vmsa.vmpl)] = vmsa
            self._enter(core, exited)

    def _op_start_vcpu(self, core, exited: Vmsa, ghcb: Ghcb,
                       message: dict) -> None:
        """AP boot / hotplug: start an idle core on a registered VMSA.

        The core must be another one than the requester's, and neither
        it nor the VMSA may already run: entering a live instance is an
        errant hypercall.
        """
        vcpu_id = _expect(message["vcpu_id"], int, "vcpu_id")
        vmpl = _expect(message.get("vmpl", VMPL_UNT), int, "vmpl")
        with self.trace_span(core, exited, "op:start_vcpu",
                             target_vcpu=vcpu_id, target_vmpl=vmpl):
            machine = self.machine
            target = self.vmsas.get((vcpu_id, vmpl))
            if target is None:
                machine.halt(f"start_vcpu: no VMSA for vcpu "
                             f"{vcpu_id} at VMPL-{vmpl}")
            if not 0 <= vcpu_id < len(machine.cores):
                machine.halt(f"start_vcpu: no physical core {vcpu_id}")
            started = machine.cores[vcpu_id]
            if started is core:
                machine.halt(f"start_vcpu: core {vcpu_id} is the "
                             "requesting core")
            if started.instance is not None and started.instance.running:
                machine.halt(f"start_vcpu: core {vcpu_id} already runs "
                             "an instance")
            if target.running:
                machine.halt(f"start_vcpu: vcpu {vcpu_id} at VMPL-{vmpl} "
                             "is already running")
            self._enter(started, target)
            self._enter(core, exited)

    def _op_page_state_change(self, core, exited: Vmsa, ghcb: Ghcb,
                              message: dict) -> None:
        """Guest asks to convert pages private<->shared (KVM assists).

        The action and every page are parsed, and every page is checked
        against physical memory, before any RMP entry changes, so a
        request with a bad action or one bad page halts the CVM with
        every page as it was.
        """
        action = message["action"]
        ppns = [_expect(ppn, int, "ppns entry")
                for ppn in _expect(message["ppns"], list, "ppns")]
        with self.trace_span(core, exited, "op:page_state_change",
                             action=str(action), pages=len(ppns)):
            rmp = self.machine.rmp
            if action == "share":
                change = rmp.share
            elif action == "private":
                change = rmp.assign
            else:
                self.machine.halt(f"bad page_state_change {action!r}")
            self._check_pages("page_state_change", ppns)
            for ppn in ppns:
                change(ppn)
            self._enter(core, exited)

    def _check_pages(self, op: str, ppns) -> None:
        """Halt the CVM if a page of ``ppns`` lies outside physical
        memory: an errant hypercall, like a GHCB page out there."""
        num_pages = self.machine.memory.num_pages
        for ppn in ppns:
            if not 0 <= ppn < num_pages:
                self.machine.halt(f"malformed GHCB message for op {op!r}: "
                                  f"page {ppn:#x} outside physical memory")

    def _op_io(self, core, exited: Vmsa, ghcb: Ghcb, message: dict) -> None:
        """Device I/O: console writes, the only device the host exposes."""
        device = message["device"]
        reply: dict = {"status": "ok"}
        with self.trace_span(core, exited, "op:io", device=str(device)):
            if device == "console":
                data = bytes.fromhex(message["data_hex"])
                reply["written"] = self.console.write(data)
            else:
                self.machine.halt(f"io to unknown device {device!r}")
            ghcb.write_message(self.machine.memory, reply)
            self._enter(core, exited)

    def _op_attestation_report(self, core, exited: Vmsa, ghcb: Ghcb,
                               message: dict) -> None:
        """Forward an attestation request to the PSP.

        The PSP stamps the *requesting VMPL* from the hardware context --
        the hypervisor cannot lie about it.
        """
        with self.trace_span(core, exited, "op:attestation_report"):
            report = self.psp.attestation_report(
                requester_vmpl=exited.vmpl,
                report_data=bytes.fromhex(message["report_data_hex"]))
            signature = report.signature
            if self.corrupt_ghcb_replies > 0:
                # Byzantine mode: the untrusted VMM flips a bit in the
                # PSP's signature on the way back through shared memory.
                # It cannot forge a valid one, so verification fails at
                # the relying party -- tampering is detected, never
                # silently trusted.
                self.corrupt_ghcb_replies -= 1
                self.ghcb_replies_corrupted += 1
                signature = bytes([signature[0] ^ 0x01]) + signature[1:]
                self.machine.tracer.metrics.count("ghcb_corrupted",
                                                  "attestation_report")
            ghcb.write_message(self.machine.memory, {
                "status": "ok",
                "measurement_hex": report.measurement.hex(),
                "requester_vmpl": report.requester_vmpl,
                "report_data_hex": report.report_data.hex(),
                "signature_hex": signature.hex(),
            })
            self._enter(core, exited)

    def _op_halt(self, core, exited: Vmsa, ghcb: Ghcb,
                 message: dict) -> None:
        with self.trace_span(core, exited, "op:halt"):
            self.machine.halt(_expect(
                message.get("reason", "guest requested halt"), str,
                "reason"))

    # ------------------------------------------------------------------
    # Automatic exits (interrupts)
    # ------------------------------------------------------------------

    def handle_automatic_exit(self, core: "VirtualCpu",
                              reason: str) -> None:
        """Service an automatic exit (e.g. timer interrupt).

        For exits taken while an enclave (VMPL-2) was running, the Veil
        patch relays the interrupt to DomUNT (KVM change #3); the guest
        kernel handles it and the enclave instance is resumed.  A malicious
        hypervisor may refuse the relay and force the interrupt into the
        enclave context -- which halts the CVM with #NPF because the OS
        interrupt handler is unreachable there (section 8.2).
        """
        exited = core.instance
        if exited is None:
            raise SimulationError("automatic exit with no instance")
        self.exit_log.append(f"auto:{reason}:vmpl{exited.vmpl}")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.metrics.count("auto_exit", reason)
            span = self.trace_span(core, exited, f"auto:{reason}")
        else:
            span = NULL_SPAN
        with span:
            if exited.vmpl != VMPL_ENC:
                # Kernel/monitor context: re-enter and let the guest
                # handle it.
                self._enter(core, exited)
                return
            if self.refuse_interrupt_relay:
                self._force_interrupt_into_enclave(core, exited)
                return
            target = self.vmsas.get(
                (exited.vcpu_id, self.interrupt_relay_vmpl))
            if target is None:
                self.machine.halt(
                    "no DomUNT instance to relay interrupt to")
            self._enter(core, target)
            if self.interrupt_return_hook is not None:
                self.interrupt_return_hook(core)
            # Kernel done; world-switch back into the enclave instance.
            self.machine.ledger.charge("domain_switch",
                                       self.machine.cost.vmgexit)
            core.hw_exit()
            self._enter(core, exited)

    def inject_spurious_exit(self, core: "VirtualCpu") -> None:
        """Byzantine-hypervisor knob: force a gratuitous exit/resume.

        A malicious VMM can always bounce a running instance through an
        exit it invented -- it costs the guest a world-switch round trip
        (charged to the ``domain_switch`` ledger category like any other
        exit) but reveals nothing and corrupts nothing: the VMSA is
        integrity-protected, so the instance resumes exactly where it
        was.  No-op if the core has no running instance.
        """
        exited = core.instance
        if exited is None:
            return
        self.exit_log.append(f"auto:spurious:vmpl{exited.vmpl}")
        self.machine.tracer.metrics.count("auto_exit", "spurious")
        with self.trace_span(core, exited, "auto:spurious"):
            self.machine.ledger.charge("domain_switch",
                                       self.machine.cost.vmgexit)
            core.hw_exit()
            self._enter(core, exited)

    def _force_interrupt_into_enclave(self, core, enc_vmsa: Vmsa) -> None:
        """Attack path: deliver the interrupt in the enclave context.

        The enclave's page tables do not map the kernel's handler, and the
        enclave VMPL has no SEXEC rights on kernel text, so the delivery
        faults and the CVM halts -- the defence row "Refuse interrupt
        relay -> CVM halts with #NPF" of Table 2.
        """
        self._enter(core, enc_vmsa)
        handler = self.machine.idt_handler_vaddr
        saved_cpl = core.regs.cpl
        core.regs.cpl = 0
        try:
            core.fetch(handler)
        except (PageFault, NestedPageFault) as fault:
            core.regs.cpl = saved_cpl
            self.machine.halt(
                "interrupt forced into enclave context: handler "
                f"unreachable ({fault})", cause=fault)
        core.regs.cpl = saved_cpl
        self.machine.halt(
            "interrupt forced into enclave context unexpectedly succeeded")


def _expect(value, kind: type, name: str):
    """``value``, if its JSON type is exactly ``kind``.

    ``true`` is not a page number and ``1.5`` or ``"1"`` is not a VMPL:
    anything else raises ``TypeError``, which
    :meth:`Hypervisor.handle_vmgexit` turns into a halt.
    """
    if type(value) is not kind:
        raise TypeError(f"{name} is a {type(value).__name__}, not "
                        f"{kind.__name__}")
    return value


#: ``op -> (exit-log tag, handler method name)`` for every GHCB operation
#: the hypervisor services.
_VMGEXIT_OPS = {name[4:]: (f"vmgexit:{name[4:]}", name)
                for name in vars(Hypervisor) if name.startswith("_op_")}
