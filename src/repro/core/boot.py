"""CVM boot: native (baseline) and Veil-modified boot flows.

Under Veil the hypervisor's single boot VCPU runs VeilMon instead of the
kernel (section 5.1).  VeilMon accepts guest memory, reserves protected
regions, builds per-core domain replicas, applies the RMPADJUST protection
sweeps (the ~2 s boot-time cost of section 9.1), and only then boots the
commodity kernel into DomUNT with delegation hooks installed.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..crypto import RsaKeyPair, generate_keypair, sha256
from ..hw.cycles import CostModel, LedgerSnapshot
from ..hw.platform import SevSnpMachine
from ..hw.rmp import VMPL_MON, VMPL_SER, VMPL_UNT
from ..hv.attestation import RemoteUser
from ..hv.hypervisor import Hypervisor
from ..kernel.kernel import Kernel
from .delegation import install_delegation
from .integration import VeilKernelIntegration
from .services.enc import VeilSEnc
from .services.kci import VeilSKci
from .services.log import VeilSLog
from .switch import MonitorGateway
from .veilmon import VeilMon

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu

# One module-signing keypair per interpreter (RSA keygen is slow).  It is
# derived from a fixed label: signed module bytes reach the chaos fabric,
# where a seeded fault schedule must see the same bytes in every process.
_MODULE_KEY: RsaKeyPair | None = None


def module_signing_key() -> RsaKeyPair:
    """Process-wide module-signing RSA key (lazy, seeded)."""
    global _MODULE_KEY
    if _MODULE_KEY is None:
        _MODULE_KEY = generate_keypair(seed=b"module-signing")
    return _MODULE_KEY


@dataclass(frozen=True)
class VeilConfig:
    """Sizing and feature knobs for a Veil CVM."""

    memory_bytes: int = 64 * 1024 * 1024
    num_cores: int = 2
    log_storage_pages: int = 256
    boot_all_cores: bool = False
    cost: CostModel | None = None
    #: Additional protected services compiled into the boot image: a
    #: tuple of ``(name, factory)`` pairs where ``factory(veilmon)``
    #: returns a :class:`~repro.core.services.base.ProtectedService`.
    #: The names are part of the measured image, so the remote user's
    #: expected measurement covers them.
    extra_services: tuple = ()
    #: Optional :class:`~repro.trace.Tracer` threaded through every layer
    #: of the booted system.  ``None`` leaves tracing disabled (the
    #: no-op tracer); tracing charges no cycles either way.
    tracer: object = None


def build_boot_image(config: VeilConfig, *,
                     trusted_key_fingerprint: str) -> bytes:
    """Deterministic boot-disk contents: monitor + services + config.

    The SHA-256 of this blob is the launch measurement the remote user
    verifies (section 5.1)."""
    service_names = ["kci", "enc", "log"] + \
        [name for name, _factory in config.extra_services]
    return b"|".join([
        b"VEIL-BOOT-IMAGE-v1",
        b"monitor=veilmon",
        f"services={','.join(service_names)}".encode(),
        f"log_pages={config.log_storage_pages}".encode(),
        f"module_key={trusted_key_fingerprint}".encode(),
    ])


@dataclass
class VeilSystem:
    """A booted Veil CVM: every layer, wired together."""

    config: VeilConfig
    machine: SevSnpMachine
    hv: Hypervisor
    veilmon: VeilMon
    kernel: Kernel
    gateway: MonitorGateway
    integration: VeilKernelIntegration
    kci: VeilSKci
    enc: VeilSEnc
    log: VeilSLog
    boot_image: bytes
    #: Cycles attributable to Veil's boot-time work (sweeps etc.).
    veil_boot_delta: LedgerSnapshot = field(default=None)  # type: ignore

    @property
    def boot_core(self) -> "VirtualCpu":
        return self.machine.core(0)

    def expected_measurement(self) -> bytes:
        """SHA-256 launch digest the remote user expects."""
        return sha256(self.boot_image)

    def remote_user(self) -> RemoteUser:
        """A remote tenant who knows the expected boot measurement."""
        return RemoteUser(self.expected_measurement(),
                          self.hv.psp.public_key)

    def attest_and_connect(self, user: RemoteUser | None = None
                           ) -> RemoteUser:
        """Full attestation handshake: verify the report, bind DH keys,
        and install the secure channel on both ends."""
        user = user or self.remote_user()
        core = self.boot_core
        reply = self.gateway.call_monitor(core, {"op": "attest"})
        report_dict = reply["report"]
        from ..hv.attestation import AttestationReport
        report = AttestationReport(
            measurement=bytes.fromhex(report_dict["measurement_hex"]),
            requester_vmpl=int(report_dict["requester_vmpl"]),
            report_data=bytes.fromhex(report_dict["report_data_hex"]),
            signature=bytes.fromhex(report_dict["signature_hex"]))
        dh_public = bytes.fromhex(report_dict["dh_public_hex"])
        key = user.channel_key_from_report(report, dh_public,
                                           require_vmpl=VMPL_MON)
        from ..crypto import SecureChannel
        user.channel = SecureChannel(key, role="initiator")  # type: ignore
        self.gateway.call_monitor(core, {
            "op": "user_channel_init",
            "peer_public_hex": user.dh.public.to_bytes(256, "big").hex()})
        return user


def boot_veil_system(config: VeilConfig | None = None) -> VeilSystem:
    """Boot a complete Veil CVM (the paper's full stack)."""
    config = config or VeilConfig()
    machine = SevSnpMachine(memory_bytes=config.memory_bytes,
                            num_cores=config.num_cores,
                            cost=config.cost, tracer=config.tracer)
    hv = Hypervisor(machine)
    trusted_key = module_signing_key()
    boot_image = build_boot_image(
        config, trusted_key_fingerprint=trusted_key.public.fingerprint())
    boot_vmsa = hv.launch(boot_image)
    core = machine.core(0)
    core.hw_enter(boot_vmsa)

    # ---- DomMON boot: monitor + services + protection sweeps -----------
    before = machine.ledger.snapshot()
    veilmon = VeilMon(machine, hv)
    veilmon.initialize(core)
    kci = VeilSKci(veilmon, trusted_key=trusted_key.public)
    enc = VeilSEnc(veilmon)
    log = VeilSLog(veilmon, storage_pages=config.log_storage_pages)
    for service in (kci, enc, log):
        veilmon.register_service(service)
    for _name, factory in config.extra_services:
        veilmon.register_service(factory(veilmon))
    veilmon.setup_idcbs()
    veilmon.apply_protection_sweeps()
    veil_boot_delta = machine.ledger.since(before)

    # ---- replicate VCPU 0 and drop into DomUNT for kernel boot ----------
    veilmon.create_core_replicas(core, 0)
    veilmon.switch_from_mon(core, VMPL_UNT)
    kernel = Kernel(machine)
    kernel.boot(core)
    veilmon.kernel = kernel
    gateway = MonitorGateway(kernel, veilmon)
    for cpu_index, ghcb_ppn in kernel.ghcb_ppns.items():
        veilmon.hv_register_ghcb(ghcb_ppn, cpu_index, {
            (VMPL_UNT, VMPL_MON), (VMPL_UNT, VMPL_SER)})
    install_delegation(kernel, gateway)
    integration = VeilKernelIntegration(kernel, gateway, kci=kci, enc=enc,
                                        log=log)
    system = VeilSystem(config=config, machine=machine, hv=hv,
                        veilmon=veilmon, kernel=kernel, gateway=gateway,
                        integration=integration, kci=kci, enc=enc,
                        log=log, boot_image=boot_image,
                        veil_boot_delta=veil_boot_delta)
    if config.boot_all_cores:
        for cpu_index in range(1, config.num_cores):
            kernel.hotplug_vcpu(core, cpu_index)
    return system


@dataclass
class NativeSystem:
    """Baseline: a native CVM with the kernel at VMPL-0 (no Veil)."""

    machine: SevSnpMachine
    hv: Hypervisor
    kernel: Kernel
    boot_image: bytes

    @property
    def boot_core(self) -> "VirtualCpu":
        return self.machine.core(0)


def boot_native_system(config: VeilConfig | None = None) -> NativeSystem:
    """Boot the paper's baseline: an unmodified CVM."""
    config = config or VeilConfig()
    machine = SevSnpMachine(memory_bytes=config.memory_bytes,
                            num_cores=config.num_cores,
                            cost=config.cost, tracer=config.tracer)
    hv = Hypervisor(machine)
    boot_image = b"NATIVE-CVM-BOOT-IMAGE-v1"
    boot_vmsa = hv.launch(boot_image)
    core = machine.core(0)
    core.hw_enter(boot_vmsa)
    # Launch-time memory acceptance (PVALIDATE sweep) happens natively too.
    machine.rmp.bulk_assign_validate()
    for ppn in machine.vmsa_objects:
        machine.rmp.install_vmsa(ppn)
    kernel = Kernel(machine)
    kernel.boot(core)
    return NativeSystem(machine=machine, hv=hv, kernel=kernel,
                        boot_image=boot_image)
