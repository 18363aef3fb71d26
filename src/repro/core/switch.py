"""Hypervisor-relayed domain switching: the kernel-side gateways.

These classes model the ~560 lines Veil adds to the guest kernel: thin
stubs that transcribe a request into the per-VCPU IDCB, ask the hypervisor
for a domain switch via the GHCB, and read the reply once the trusted
domain has switched back (Fig. 3 of the paper).

The Python control flow mirrors the hardware flow: ``core.vmgexit()``
re-enters the core on the target domain's VMSA, after which the gateway
invokes that domain's *body* (monitor or service dispatch), which ends by
switching back.
"""

from __future__ import annotations

import typing

from ..errors import SecurityViolation
from ..hw.ghcb import Ghcb
from .domains import VMPL_MON, VMPL_SER, VMPL_UNT
from .veilmon import VeilMon

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu
    from ..kernel.kernel import Kernel


class MonitorGateway:
    """Kernel-resident stub for calling into DomMON and DomSER."""

    def __init__(self, kernel: "Kernel", veilmon: VeilMon):
        self.kernel = kernel
        self.veilmon = veilmon
        self.switch_count = 0

    def _kernel_ghcb(self, core: "VirtualCpu") -> Ghcb:
        return Ghcb(self.kernel.ghcb_ppns[core.cpu_index])

    def _switch(self, core: "VirtualCpu", target_vmpl: int) -> None:
        # Enter kernel mode for the privileged MSR write, then exit.  No
        # state is restored afterwards: the VMGEXIT seals this (kernel)
        # context into the DomUNT VMSA, and control returns here only once
        # the trusted domain has switched back to that same instance.
        ghcb = self._kernel_ghcb(core)
        assert self.kernel.kernel_table is not None
        core.regs.cr3 = self.kernel.kernel_table.root_ppn
        core.regs.cpl = 0
        core.wrmsr_ghcb(ghcb.gpa)
        ghcb.write_switch(self.kernel.machine.memory, target_vmpl)
        core.vmgexit()
        self.switch_count += 1

    def call_monitor(self, core: "VirtualCpu", request: dict) -> dict:
        """OS -> DomMON round trip through the IDCB (Fig. 3)."""
        request = dict(request)
        request["_reply_to"] = VMPL_UNT
        idcb = self.veilmon.os_idcbs[core.cpu_index]
        idcb.write_request(self.kernel.machine.memory, request)
        self._switch(core, VMPL_MON)
        # Core is now on the MON instance: the monitor body runs, replies,
        # and switches back to DomUNT before control returns here.
        self.veilmon.on_entry(core, from_vmpl=VMPL_UNT)
        reply = idcb.read_reply(self.kernel.machine.memory)
        if reply.get("status") == "denied":
            raise SecurityViolation(
                f"VeilMon denied request: {reply.get('reason')}")
        return reply

    def call_service(self, core: "VirtualCpu", request: dict) -> dict:
        """OS -> DomSER round trip (protected-service requests)."""
        request = dict(request)
        request["_reply_to"] = VMPL_UNT
        idcb = self.veilmon.ser_idcbs[core.cpu_index]
        idcb.write_request(self.kernel.machine.memory, request)
        self._switch(core, VMPL_SER)
        self.veilmon.on_ser_entry(core)
        reply = idcb.read_reply(self.kernel.machine.memory)
        if reply.get("status") == "denied":
            raise SecurityViolation(
                f"protected service denied request: {reply.get('reason')}")
        return reply
