"""VM Save Area (VMSA): the sealed per-VCPU-instance register state.

Each VCPU *instance* owns one VMSA, stored in a guest physical page whose
RMP entry carries the ``vmsa`` flag (making it inaccessible to everything
except VMPL-0 software and the hardware's own save/restore path).

The VMPL recorded at VMSA creation is permanent -- this is the hardware
property Veil's replicated-VCPU design (section 5.2) is built around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GPR_NAMES = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)


def _zero_gprs() -> dict[str, int]:
    return {name: 0 for name in GPR_NAMES}


@dataclass(slots=True)
class RegisterFile:
    """Architectural register state saved and restored at world switches."""

    rip: int = 0
    cpl: int = 0
    cr3: int = 0                     # ppn of the active page-table root
    gprs: dict[str, int] = field(default_factory=_zero_gprs)
    ghcb_msr: int = 0                # GHCB location MSR (gpa)
    efer_sce: bool = True            # syscall enable; illustrative only


@dataclass
class Vmsa:
    """A VM Save Area: (vcpu_id, vmpl) plus the saved register file.

    ``vmpl`` is immutable after construction (enforced by convention and by
    tests); the hardware model never exposes a mutation path.
    """

    vcpu_id: int
    vmpl: int
    ppn: int                          # physical page backing this VMSA
    regs: RegisterFile = field(default_factory=RegisterFile)
    #: True while the instance is live on a physical VCPU (its register
    #: state is then *in* the CPU, not the VMSA).
    running: bool = False

    # Every world switch seals one register file and loads another, so
    # each copy is built here, positionally in declaration order.
    # ``gprs`` is copied, so saved and live states never share a dict.

    def save(self, regs: RegisterFile) -> None:
        """Hardware path: seal a copy of ``regs`` into the VMSA."""
        self.regs = RegisterFile(regs.rip, regs.cpl, regs.cr3,
                                 dict(regs.gprs), regs.ghcb_msr,
                                 regs.efer_sce)
        self.running = False

    def restore(self) -> RegisterFile:
        """Hardware path: load a copy of the sealed register state."""
        self.running = True
        regs = self.regs
        return RegisterFile(regs.rip, regs.cpl, regs.cr3, dict(regs.gprs),
                            regs.ghcb_msr, regs.efer_sce)
