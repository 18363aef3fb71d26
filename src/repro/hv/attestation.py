"""SEV-SNP launch measurement and remote attestation.

The AMD secure processor (PSP) measures the CVM boot image at launch and
later signs attestation reports requested from inside the guest.  A report
carries the launch measurement, the *VMPL of the requesting software*, and
caller-supplied report data (Veil uses a DH public value to bootstrap the
secure user channel, section 5.1).

The PSP is trusted hardware in the paper's threat model; the hypervisor
merely transports reports and cannot forge them (it lacks the signing key).

Signing is deterministic (SHA-256 full-domain padding, no randomness), so
a PSP asked again for the bytes it signed last returns that report as it
is: the signature is exactly what a fresh ``sign`` would produce, and it
passed the CRT public-exponent check when it was made.  A re-attesting
monitor asks for the same bytes every time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..crypto import (DhKeyPair, FixedBase, RsaKeyPair, RsaPublicKey,
                      generate_keypair, sha256)
from ..errors import AttestationError

# One platform signing key per interpreter: RSA keygen is the slowest thing
# in the whole simulator, so it is generated once and shared.  It is
# derived from a fixed label so that signed reports, which cross the
# chaos fabric, are the same bytes in every process.
_PLATFORM_KEY: RsaKeyPair | None = None


def platform_signing_key() -> RsaKeyPair:
    """Process-wide PSP signing key (lazy, seeded)."""
    global _PLATFORM_KEY
    if _PLATFORM_KEY is None:
        _PLATFORM_KEY = generate_keypair(seed=b"platform-psp")
    return _PLATFORM_KEY


@dataclass(frozen=True)
class AttestationReport:
    """A signed attestation report, as produced by the PSP."""

    measurement: bytes        # SHA-256 launch digest of the boot image
    requester_vmpl: int       # VMPL of the software that asked for it
    report_data: bytes        # caller-chosen 64 bytes (DH public, nonce...)
    signature: bytes

    def signed_blob(self) -> bytes:
        """The byte string the PSP signature covers."""
        return (self.measurement + bytes([self.requester_vmpl]) +
                self.report_data)


class SecureProcessor:
    """The PSP: measures launches and signs reports."""

    def __init__(self, keypair: RsaKeyPair | None = None):
        self._key = keypair or platform_signing_key()
        self._launch_measurement: bytes | None = None
        self._last_report: AttestationReport | None = None

    @property
    def public_key(self) -> RsaPublicKey:
        return self._key.public

    def measure_launch(self, boot_image: bytes) -> bytes:
        """Record the launch digest of the boot disk image (section 5.1)."""
        self._launch_measurement = sha256(boot_image)
        return self._launch_measurement

    @property
    def launch_measurement(self) -> bytes:
        if self._launch_measurement is None:
            raise AttestationError("no launch has been measured")
        return self._launch_measurement

    def attestation_report(self, *, requester_vmpl: int,
                           report_data: bytes) -> AttestationReport:
        """Sign a report for software running at ``requester_vmpl``.

        A request for the bytes of the last signed report gets that
        report back without a second signature.
        """
        if len(report_data) > 64:
            raise AttestationError("report data limited to 64 bytes")
        report_data = report_data.ljust(64, b"\x00")
        unsigned = AttestationReport(
            measurement=self.launch_measurement,
            requester_vmpl=requester_vmpl,
            report_data=report_data, signature=b"")
        blob = unsigned.signed_blob()
        last = self._last_report
        if last is not None and last.signed_blob() == blob:
            return last
        report = replace(unsigned, signature=self._key.sign(blob))
        self._last_report = report
        return report


class RemoteUser:
    """The remote tenant who verifies attestation and talks to VeilMon.

    Carries the *expected* boot-image digest (the user built the image) and
    the AMD public key.  :meth:`verify` returns the channel key on success.
    """

    def __init__(self, expected_measurement: bytes,
                 platform_public: RsaPublicKey, *,
                 session: tuple[bytes, ...] = ()):
        self.expected_measurement = expected_measurement
        self.platform_public = platform_public
        # The modeled relying party lives inside the deterministic fleet
        # transcript, so its DH pair derives from the policy it carries
        # plus a ``session`` label; a relying party that runs many
        # handshakes passes a distinct label each time, so every link
        # gets a fresh pair (and thus a fresh key).
        self.dh = DhKeyPair.from_seed(b"remote-user", expected_measurement,
                                      *session)

    def verify(self, report: AttestationReport, *,
               require_vmpl: int = 0) -> None:
        """Verify signature, measurement, and requester VMPL."""
        from ..errors import SecurityViolation
        try:
            self.platform_public.verify(report.signed_blob(),
                                        report.signature)
        except SecurityViolation as bad_sig:
            raise AttestationError(
                f"report signature invalid: {bad_sig}") from bad_sig
        if report.measurement != self.expected_measurement:
            raise AttestationError(
                "launch measurement mismatch: boot image was tampered with")
        if report.requester_vmpl != require_vmpl:
            raise AttestationError(
                f"report requested from VMPL-{report.requester_vmpl}, "
                f"expected VMPL-{require_vmpl}")

    def channel_key_from_report(self, report: AttestationReport,
                                dh_public_blob: bytes, *,
                                require_vmpl: int = 0,
                                table: FixedBase | None = None) -> bytes:
        """Verify the report, bind the peer's DH public value, derive a key.

        Report data is only 64 bytes, so (as real SNP deployments do) it
        carries ``SHA-256(peer DH public)`` while the full public value
        travels over the untrusted transport.  Tampering with the public
        value breaks the hash binding.  ``table`` reaches
        :meth:`DhKeyPair.shared_key` only after every check has passed.
        """
        self.verify(report, require_vmpl=require_vmpl)
        if sha256(dh_public_blob) != report.report_data[:32]:
            raise AttestationError("DH public value not bound to report")
        peer_public = int.from_bytes(dh_public_blob, "big")
        return self.dh.shared_key(peer_public, table)
