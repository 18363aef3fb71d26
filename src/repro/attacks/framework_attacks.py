"""Table 1: attacks against the Veil framework, with their defences.

Every attack runs with full kernel-compromise privileges (section 4.1's
threat model) and asserts that the *documented* defence fires: remote
attestation failure, VMPL restriction (#NPF -> CVM halt), RMPADJUST
privilege fault, creation control, or request sanitization.
"""

from __future__ import annotations

from ..core.boot import boot_veil_system, build_boot_image, \
    module_signing_key
from ..errors import (AttestationError, CvmHalted, InvalidInstruction,
                      SecurityViolation)
from ..hw.memory import page_base
from ..hw.rmp import VMPL_MON, VMPL_SER
from .base import ATTACK_CONFIG, AttackResult, fresh_system


def attack_boot_time_malicious_image(system=None) -> AttackResult:
    """Boot-time: load a malicious boot disk instead of Veil's.

    Defence: SEV remote attestation -- the launch digest differs from what
    the user expects, so verification fails before any secret is sent.
    """
    config = ATTACK_CONFIG
    tampered = boot_veil_system(config)
    # The attacker shipped a different boot image; model this by the user
    # expecting the *genuine* image digest while the measured image
    # carries an attacker payload marker.
    from ..crypto import sha256
    from ..hv.attestation import RemoteUser
    genuine = build_boot_image(
        config,
        trusted_key_fingerprint=module_signing_key().public.fingerprint())
    evil_measurement = tampered.hv.psp.measure_launch(
        genuine + b"|attacker-implant")
    user = RemoteUser(sha256(genuine), tampered.hv.psp.public_key)
    try:
        tampered.attest_and_connect(user)
    except AttestationError as err:
        return AttackResult("load malicious code at DomMON/DomSER",
                            True, "remote attestation", str(err))
    return AttackResult("load malicious code at DomMON/DomSER", False,
                        "remote attestation", "verification passed?!")


def attack_read_monitor_memory(system=None) -> AttackResult:
    """Runtime: read VeilMon's memory from the compromised kernel."""
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    target = system.veilmon.image_ppns[0]
    try:
        attacker.read_phys(page_base(target), 64)
    except CvmHalted as halt:
        return AttackResult("read at DomMON", True, "restricted by VMPL",
                            str(halt))
    return AttackResult("read at DomMON", False, "restricted by VMPL",
                        "read succeeded")


def attack_write_service_memory(system=None) -> AttackResult:
    """Runtime: overwrite a protected service's memory."""
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    target = system.kci.image_ppns[0]
    try:
        attacker.write_phys(page_base(target), b"evil")
    except CvmHalted as halt:
        return AttackResult("write at DomSER", True, "restricted by VMPL",
                            str(halt))
    return AttackResult("write at DomSER", False, "restricted by VMPL",
                        "write succeeded")


def attack_adjust_vmpl_restrictions(system=None) -> AttackResult:
    """Runtime: lift VMPL restrictions with RMPADJUST from the kernel."""
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    target = system.veilmon.image_ppns[0]
    denied = attacker.try_rmpadjust(target, target_vmpl=VMPL_MON)
    if isinstance(denied, (InvalidInstruction, CvmHalted)):
        return AttackResult("adjust VMPL restrictions", True,
                            "RMPADJUST prohibited", repr(denied))
    return AttackResult("adjust VMPL restrictions", False,
                        "RMPADJUST prohibited", "adjustment succeeded")


def attack_overwrite_sensitive_registers(system=None) -> AttackResult:
    """Runtime: overwrite a trusted domain's saved register state."""
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    mon_vmsa = system.veilmon.vmsas[(0, VMPL_MON)]
    try:
        attacker.write_phys(page_base(mon_vmsa.ppn), b"\xff" * 32)
    except CvmHalted as halt:
        return AttackResult("overwrite sensitive registers", True,
                            "protected in DomMON", str(halt))
    return AttackResult("overwrite sensitive registers", False,
                        "protected in DomMON", "write succeeded")


def attack_overwrite_page_tables(system=None) -> AttackResult:
    """Runtime: overwrite VeilMon's page tables (also section 8.3 #1).

    The attacker maps the monitor's page-table root into the OS address
    space -- the mapping itself succeeds (the kernel owns its tables) --
    and then writes through it, which the RMP vetoes.
    """
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    assert system.veilmon.mon_table is not None
    root = system.veilmon.mon_table.root_ppn
    vaddr = attacker.map_foreign_page(root, writable=True)
    try:
        attacker.write_virt(vaddr, b"\x00" * 8)
    except CvmHalted as halt:
        return AttackResult("overwrite page tables", True,
                            "protected in DomMON", str(halt))
    return AttackResult("overwrite page tables", False,
                        "protected in DomMON", "write succeeded")


def attack_create_privileged_vcpu(system=None) -> AttackResult:
    """Runtime: spawn an attacker VCPU at DomMON/DomSER.

    Two sub-attacks: forging a VMSA registration (the hardware VMSA
    marking is missing, so the CVM halts), and asking VeilMon to boot a
    VCPU at a privileged VMPL (sanitized: DomUNT only).
    """
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    try:
        system.gateway.call_monitor(system.boot_core, {
            "op": "boot_vcpu", "vcpu_id": 1, "vmpl": VMPL_SER})
    except SecurityViolation as denied:
        monitor_path = str(denied)
    else:
        return AttackResult("create VCPU at DomMON/DomSER", False,
                            "control creation",
                            "monitor booted privileged VCPU")
    try:
        attacker.try_spawn_vcpu_at_vmpl(1, VMPL_MON)
    except CvmHalted as halt:
        return AttackResult("create VCPU at DomMON/DomSER", True,
                            "control creation",
                            f"{monitor_path}; forge: {halt}")
    return AttackResult("create VCPU at DomMON/DomSER", False,
                        "control creation", "forged VMSA accepted")


def attack_overwrite_idcb(system=None) -> AttackResult:
    """Inter-domain communication: overwrite a protected IDCB.

    OS<->Mon IDCBs are intentionally in kernel memory; the protected ones
    (SER<->MON) live in DomSER memory and are what this row covers.
    """
    system = system or fresh_system()
    attacker = system.kernel.compromise(system.boot_core)
    target = system.veilmon.monser_idcbs[0].ppn
    try:
        attacker.write_phys(page_base(target), b'{"evil": 1}')
    except CvmHalted as halt:
        return AttackResult("overwrite IDCB", True, "protected in DomSER",
                            str(halt))
    return AttackResult("overwrite IDCB", False, "protected in DomSER",
                        "write succeeded")


def attack_malicious_monitor_request(system=None) -> AttackResult:
    """Inter-domain communication: pass a pointer to protected memory in
    a monitor request (e.g. PVALIDATE on VeilMon's pages)."""
    system = system or fresh_system()
    target = system.veilmon.image_ppns[0]
    try:
        system.gateway.call_monitor(system.boot_core, {
            "op": "pvalidate", "ppn": target, "validate": False})
    except SecurityViolation as denied:
        return AttackResult("OS sends malicious request", True,
                            "OS request sanitized", str(denied))
    return AttackResult("OS sends malicious request", False,
                        "OS request sanitized", "request accepted")


TABLE1_ATTACKS = (
    attack_boot_time_malicious_image,
    attack_read_monitor_memory,
    attack_write_service_memory,
    attack_adjust_vmpl_restrictions,
    attack_overwrite_sensitive_registers,
    attack_overwrite_page_tables,
    attack_create_privileged_vcpu,
    attack_overwrite_idcb,
    attack_malicious_monitor_request,
)


def run_table1() -> list[AttackResult]:
    """Execute every Table 1 attack on fresh systems."""
    return [attack(None) for attack in TABLE1_ATTACKS]
