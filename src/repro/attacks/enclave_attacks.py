"""Table 2: attacks against VeilS-ENC enclaves, with their defences.

Covers all three attacker positions the paper analyzes: the compromised
CVM OS, the malicious hypervisor, and a malicious co-resident enclave.
"""

from __future__ import annotations

from ..enclave import EnclaveHost, build_test_binary
from ..errors import CvmHalted, SdkError, SecurityViolation
from ..hw.memory import page_base
from ..hw.pagetable import PageFault
from ..hw.rmp import VMPL_ENC
from ..hv.hypervisor import HostAccessBlocked
from ..kernel import layout as klayout
from .base import AttackResult, fresh_system


def _launch_enclave(system, name: str = "victim"):
    host = EnclaveHost(system, build_test_binary(name, heap_pages=4))
    host.launch()
    return host


# ---------------------------------------------------------------------------
# From the CVM OS
# ---------------------------------------------------------------------------

def attack_load_incorrect_binary(system=None) -> AttackResult:
    """OS installs a different binary than the user expects.

    Defence: enclave attestation -- the measurement the user computes from
    the genuine binary does not match VeilS-ENC's report.
    """
    system = system or fresh_system()
    genuine = build_test_binary("victim", heap_pages=4)
    evil = build_test_binary("trojaned-victim", heap_pages=4)
    host = EnclaveHost(system, evil)
    host.launch()
    expected = genuine.expected_measurement(klayout.ENCLAVE_BASE)
    try:
        host.attest(expected)
    except SdkError as err:
        return AttackResult("load incorrect binary", True,
                            "enclave attestation", str(err))
    return AttackResult("load incorrect binary", False,
                        "enclave attestation", "measurement matched?!")


def attack_os_reads_enclave_memory(system=None) -> AttackResult:
    """OS reads enclave pages directly."""
    system = system or fresh_system()
    host = _launch_enclave(system)
    setup = system.integration.enclaves[host.enclave_id]
    code_ppn = setup.region_ppns[setup.layout["code"][0] >> 12]
    attacker = system.kernel.compromise(system.boot_core)
    try:
        attacker.read_phys(page_base(code_ppn), 64)
    except CvmHalted as halt:
        return AttackResult("OS read/write enclave memory", True,
                            "restrictions in DomUNT", str(halt))
    return AttackResult("OS read/write enclave memory", False,
                        "restrictions in DomUNT", "read succeeded")


def attack_os_modifies_physical_layout(system=None) -> AttackResult:
    """OS remaps the enclave region in its own page tables post-install.

    Defence: the enclave executes on the page table VeilS-ENC cloned into
    protected memory, so OS-side remapping does not affect enclave
    translation -- and the protected table itself cannot be written.
    """
    system = system or fresh_system()
    host = _launch_enclave(system)
    setup = system.integration.enclaves[host.enclave_id]
    record = system.enc.enclaves[host.enclave_id]
    data_vaddr = setup.layout["data"][0]
    vpn = data_vaddr >> 12
    original_ppn = record.pages[vpn][0]
    # Remap in the OS view: trivially possible, but irrelevant.
    decoy_ppn = system.kernel.mm.alloc_frame("decoy")
    setup.proc.page_table.map(vpn, decoy_ppn, writable=True, user=True)
    assert record.page_table is not None
    still_maps = record.page_table.entry(vpn)
    if still_maps is None or still_maps.ppn != original_ppn:
        return AttackResult("modify physical layout", False,
                            "PTs protected in DomSER",
                            "protected table followed the OS remap")
    # Writing the protected table's backing page halts the CVM.
    attacker = system.kernel.compromise(system.boot_core)
    try:
        attacker.write_phys(page_base(record.page_table.root_ppn),
                            b"\x00" * 8)
    except CvmHalted as halt:
        return AttackResult("modify physical layout", True,
                            "PTs protected in DomSER", str(halt))
    return AttackResult("modify physical layout", False,
                        "PTs protected in DomSER", "table overwritten")


def attack_os_violates_saved_state(system=None) -> AttackResult:
    """OS overwrites the enclave's interrupted register state (VMSA)."""
    system = system or fresh_system()
    host = _launch_enclave(system)
    record = system.enc.enclaves[host.enclave_id]
    assert record.vmsa is not None
    attacker = system.kernel.compromise(system.boot_core)
    try:
        attacker.write_phys(page_base(record.vmsa.ppn), b"\xff" * 16)
    except CvmHalted as halt:
        return AttackResult("violate saved state (OS)", True,
                            "VMSA protected in DomMON", str(halt))
    return AttackResult("violate saved state (OS)", False,
                        "VMSA protected in DomMON", "write succeeded")


def attack_incorrect_ghcb_mapping(system=None) -> AttackResult:
    """OS arms a wrong (unregistered) GHCB before the enclave switch.

    Defence: the CVM crashes on the attempted VMGEXIT (section 6.2)."""
    system = system or fresh_system()
    host = _launch_enclave(system)
    runtime = host.runtime
    assert runtime is not None
    rogue_ppn = system.kernel.mm.alloc_frame("rogue-ghcb")
    system.machine.rmp.share(rogue_ppn)
    # The OS points the GHCB MSR somewhere else before resuming.
    with system.kernel.kernel_context(system.boot_core) as core:
        core.wrmsr_ghcb(page_base(rogue_ppn))
    from ..hw.ghcb import Ghcb
    try:
        system.boot_core.switch_to(Ghcb(rogue_ppn), VMPL_ENC)
    except CvmHalted as halt:
        return AttackResult("incorrect GHCB mapping", True,
                            "CVM crash on VMGEXIT", str(halt))
    return AttackResult("incorrect GHCB mapping", False,
                        "CVM crash on VMGEXIT", "switch succeeded")


# ---------------------------------------------------------------------------
# From the hypervisor
# ---------------------------------------------------------------------------

def attack_hypervisor_violates_saved_state(system=None) -> AttackResult:
    """Hypervisor writes the enclave VMSA from outside the CVM."""
    system = system or fresh_system()
    host = _launch_enclave(system)
    record = system.enc.enclaves[host.enclave_id]
    assert record.vmsa is not None
    try:
        system.hv.host_write(page_base(record.vmsa.ppn), b"\xff" * 16)
    except HostAccessBlocked as blocked:
        return AttackResult("violate saved state (hypervisor)", True,
                            "VMSA protected in CVM", str(blocked))
    return AttackResult("violate saved state (hypervisor)", False,
                        "VMSA protected in CVM", "write succeeded")


def attack_hypervisor_refuses_interrupt_relay(system=None) -> AttackResult:
    """Hypervisor forces interrupt handling into the enclave context.

    Defence: the OS handler is unreachable at DomENC, so the CVM halts
    with #NPF instead of leaking control into the enclave."""
    system = system or fresh_system()
    host = _launch_enclave(system)
    system.hv.refuse_interrupt_relay = True
    tick = system.kernel.scheduler.tick_interval_cycles

    def spin(libc):
        for _ in range(4):
            libc.compute(tick + 1)
        return "survived"

    try:
        host.run(spin)
    except CvmHalted as halt:
        return AttackResult("refuse interrupt relay", True,
                            "CVM halts with #NPF", str(halt))
    return AttackResult("refuse interrupt relay", False,
                        "CVM halts with #NPF", "interrupt ran in enclave")


# ---------------------------------------------------------------------------
# From malicious enclaves
# ---------------------------------------------------------------------------

def attack_enclave_reads_other_enclave(system=None) -> AttackResult:
    """A malicious enclave tries to reach a victim enclave's memory.

    Defences: the disjoint-physical-pages invariant rejects shared frames
    at finalize, and the attacker's protected page table simply has no
    mapping for the victim's pages."""
    system = system or fresh_system()
    victim = _launch_enclave(system, "victim")
    victim_setup = system.integration.enclaves[victim.enclave_id]
    victim_ppn = victim_setup.region_ppns[
        victim_setup.layout["data"][0] >> 12]
    # (a) Finalize-time: craft a layout that includes the victim's page.
    try:
        system.gateway.call_service(system.boot_core, {
            "op": "enc_finalize", "pid": 999, "vcpu_id": 0,
            "base_vaddr": klayout.ENCLAVE_BASE, "entry_rip": 0,
            "pages": [[klayout.ENCLAVE_BASE >> 12, victim_ppn, True,
                       False]],
            "shared_pages": [], "ghcb_ppn": 0, "ghcb_vaddr": 0,
            "idcb_ppn": victim_ppn})
    except SecurityViolation as denied:
        finalize_denied = str(denied)
    else:
        return AttackResult("access memory from DomENC", False,
                            "disjoint physical pages",
                            "overlapping finalize accepted")
    # (b) Runtime: the victim stores a secret; a co-resident enclave
    # dereferencing the same virtual address sees only its own (disjoint)
    # page, never the victim's bytes.
    secret = b"VICTIM-SECRET!!!"
    data_vaddr = victim_setup.layout["data"][0]
    victim.run(lambda libc: libc.poke(data_vaddr, secret))
    evil = EnclaveHost(system, build_test_binary("evil", heap_pages=4))
    evil.launch()
    leaked = evil.run(lambda libc: libc.peek(data_vaddr, len(secret)))
    if leaked == secret:
        return AttackResult("access memory from DomENC", False,
                            "disjoint physical pages", "secret leaked")
    # (c) OS-assisted: try to remap the victim's frame into the evil
    # enclave through the paging path.
    system.integration.evict_enclave_page(
        system.boot_core, evil.enclave_id,
        evil_heap_vaddr := system.integration.enclaves[
            evil.enclave_id].layout["heap"][0])
    setup_evil = system.integration.enclaves[evil.enclave_id]
    vpn = evil_heap_vaddr >> 12
    ciphertext, tag_hex = setup_evil.swap_store[vpn]
    staging = system.kernel.mm.alloc_frame("attack-staging")
    with system.kernel.kernel_context(system.boot_core) as kcore:
        kcore.write(klayout.direct_map_vaddr(page_base(staging)),
                    ciphertext)
    try:
        system.gateway.call_service(system.boot_core, {
            "op": "enc_restore_page", "enclave_id": evil.enclave_id,
            "vpn": vpn, "staging_ppn": staging,
            "new_ppn": victim_ppn, "tag_hex": tag_hex})
    except SecurityViolation as denied:
        return AttackResult("access memory from DomENC", True,
                            "disjoint physical pages",
                            f"{finalize_denied}; remap: {denied}")
    return AttackResult("access memory from DomENC", False,
                        "disjoint physical pages",
                        "victim frame remapped into attacker enclave")


def attack_enclave_executes_os_code(system=None) -> AttackResult:
    """An enclave jumps into kernel (supervisor) code."""
    system = system or fresh_system()
    host = _launch_enclave(system)

    def jump(libc):
        core = libc.rt.core
        return core.fetch(klayout.KERNEL_TEXT_BASE)

    try:
        host.run(jump)
    except (PageFault, CvmHalted) as err:
        return AttackResult("execute OS code in DomENC", True,
                            "disallowed in DomENC", repr(err))
    return AttackResult("execute OS code in DomENC", False,
                        "disallowed in DomENC", "fetch succeeded")


def attack_enclave_escalates_via_ghcb(system=None) -> AttackResult:
    """A malicious enclave requests a switch to DomMON via its GHCB.

    The user-mapped GHCB's policy only permits DomUNT/DomENC/DomSER
    transitions (section 6.2), so the errant hypercall crashes the CVM
    instead of landing in the monitor."""
    system = system or fresh_system()
    host = _launch_enclave(system, "escalator")

    def escalate(libc):
        rt = libc.rt
        # veil-lint: allow(vmpl-literal) -- forged escalation payload
        rt.core.switch_to(rt.user_ghcb, vmpl=0)
        return "switched"

    try:
        host.run(escalate)
    except CvmHalted as halt:
        return AttackResult("enclave requests DomMON switch", True,
                            "GHCB switch policy", str(halt))
    return AttackResult("enclave requests DomMON switch", False,
                        "GHCB switch policy", "enclave reached DomMON")


TABLE2_ATTACKS = (
    attack_load_incorrect_binary,
    attack_os_reads_enclave_memory,
    attack_os_modifies_physical_layout,
    attack_os_violates_saved_state,
    attack_incorrect_ghcb_mapping,
    attack_hypervisor_violates_saved_state,
    attack_hypervisor_refuses_interrupt_relay,
    attack_enclave_reads_other_enclave,
    attack_enclave_executes_os_code,
    attack_enclave_escalates_via_ghcb,
)


def run_table2() -> list[AttackResult]:
    """Execute every Table 2 attack on fresh systems."""
    return [attack(None) for attack in TABLE2_ATTACKS]
