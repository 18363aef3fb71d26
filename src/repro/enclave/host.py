"""The untrusted host application side of an enclave.

Models the ~200-line per-application porting effort the paper reports: the
host process opens /dev/veil, installs the self-contained binary via
ioctl, and thereafter proxies redirected syscalls while the enclave runs.
"""

from __future__ import annotations

import typing

from ..errors import SdkError
from ..kernel.fs import O_RDWR
from .binary import EnclaveBinary
from .runtime import EnclaveRuntime
from .sdk import EnclaveLibc

if typing.TYPE_CHECKING:
    from ..core.boot import VeilSystem
    from ..kernel.process import Process

#: veil.ko's ioctl request codes on /dev/veil: the ABI between a host
#: application and the kernel module (``core.integration`` serves them).
VEIL_IOC_CREATE = 0x5601
VEIL_IOC_DESTROY = 0x5602
VEIL_IOC_SCHEDULE = 0x5603


class EnclaveHost:
    """An untrusted application that hosts one enclave."""

    def __init__(self, system: "VeilSystem", binary: EnclaveBinary,
                 proc: "Process | None" = None, *, shared_pages: int = 8):
        self.system = system
        self.binary = binary
        self.proc = proc or system.kernel.create_process(
            f"host-{binary.name}")
        self.shared_pages = shared_pages
        self.runtime: EnclaveRuntime | None = None
        self.enclave_id: int | None = None
        self.measurement_hex: str | None = None

    @property
    def core(self):
        return self.system.boot_core

    def launch(self) -> EnclaveRuntime:
        """Install the binary into a new enclave (ioctl to veil.ko)."""
        if self.runtime is not None:
            raise SdkError("enclave already launched")
        kernel = self.system.kernel
        core = self.core
        fd = kernel.syscall(core, self.proc, "open", "/dev/veil", O_RDWR)
        self.enclave_id = kernel.syscall(
            core, self.proc, "ioctl", fd, VEIL_IOC_CREATE,
            {"binary": self.binary, "shared_pages": self.shared_pages})
        kernel.syscall(core, self.proc, "close", fd)
        setup = self.system.integration.enclaves[self.enclave_id]
        self.measurement_hex = setup.measurement_hex
        self.runtime = EnclaveRuntime(self.system, setup)
        return self.runtime

    def attest(self, expected_measurement_hex: str) -> None:
        """Remote-user-side check of the enclave measurement."""
        if self.measurement_hex != expected_measurement_hex:
            raise SdkError(
                "enclave measurement mismatch: "
                f"{self.measurement_hex} != {expected_measurement_hex}")

    def attest_remote(self, user) -> str:
        """Full remote attestation (section 6.2): VeilS-ENC seals the
        measurement over VeilMon's secure channel; the untrusted OS only
        relays opaque bytes.  Returns the verified measurement hex and
        raises if it does not match the user's expected binary."""
        reply = self.system.gateway.call_service(self.core, {
            "op": "enc_report_measurement",
            "enclave_id": self.enclave_id})
        payload = user.channel.receive(bytes.fromhex(
            reply["record_hex"]))
        from ..kernel import layout
        expected = self.binary.expected_measurement(layout.ENCLAVE_BASE)
        if payload["measurement_hex"] != expected:
            raise SdkError(
                "remote enclave attestation failed: "
                f"{payload['measurement_hex']} != {expected}")
        return payload["measurement_hex"]

    def run(self, entry: typing.Callable[[EnclaveLibc], typing.Any]):
        """Enter the enclave and execute ``entry(libc)`` inside it."""
        if self.runtime is None:
            self.launch()
        assert self.runtime is not None
        return self.run_on(self.runtime, entry)

    @staticmethod
    def run_on(runtime: EnclaveRuntime,
               entry: typing.Callable[[EnclaveLibc], typing.Any]):
        """Execute ``entry(libc)`` inside the enclave on ``runtime``'s
        thread (primary or spawned)."""
        runtime.enter()
        try:
            return entry(EnclaveLibc(runtime))
        finally:
            if runtime.inside:
                runtime.exit_to_untrusted()

    def spawn_thread(self, vcpu_id: int) -> EnclaveRuntime:
        """Create an additional enclave thread pinned to ``vcpu_id``
        (the section 7 multi-threading extension)."""
        if self.runtime is None:
            raise SdkError("launch the enclave before spawning threads")
        assert self.enclave_id is not None
        self.system.integration.add_enclave_thread(self.core,
                                                   self.enclave_id,
                                                   vcpu_id)
        setup = self.system.integration.enclaves[self.enclave_id]
        return EnclaveRuntime(self.system, setup, vcpu_id=vcpu_id)

    def destroy(self) -> None:
        """Tear the enclave down (service scrubs its memory)."""
        if self.enclave_id is not None and self.runtime is not None and \
                not self.runtime.killed:
            self.system.integration.destroy_enclave(self.core,
                                                    self.enclave_id)
        self.runtime = None
        self.enclave_id = None
