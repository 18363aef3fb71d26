"""Unit tests: PSP attestation and remote-user verification."""

import pytest

from repro.crypto import RsaKeyPair, sha256
from repro.errors import AttestationError, SecurityViolation
from repro.hv.attestation import (RemoteUser, SecureProcessor,
                                  platform_signing_key)


@pytest.fixture
def psp():
    processor = SecureProcessor()
    processor.measure_launch(b"good-boot-image")
    return processor


class TestSecureProcessor:
    def test_report_before_launch_rejected(self):
        with pytest.raises(AttestationError):
            SecureProcessor().attestation_report(requester_vmpl=0,
                                                 report_data=b"")

    def test_report_data_padded_to_64(self, psp):
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=b"abc")
        assert len(report.report_data) == 64

    def test_oversized_report_data_rejected(self, psp):
        with pytest.raises(AttestationError):
            psp.attestation_report(requester_vmpl=0,
                                   report_data=b"x" * 65)


class CountingKey:
    """The platform key, counting its signatures."""

    def __init__(self, keypair):
        self.keypair = keypair
        self.public = keypair.public
        self.signs = 0

    def sign(self, message: bytes) -> bytes:
        self.signs += 1
        return self.keypair.sign(message)


class TestReportReissue:
    """A request for the bytes the PSP signed last re-issues that report."""

    @pytest.fixture
    def counted(self):
        key = CountingKey(platform_signing_key())
        processor = SecureProcessor(key)
        processor.measure_launch(b"good-boot-image")
        return processor, key

    def test_identical_request_is_not_signed_again(self, counted):
        processor, key = counted
        first = processor.attestation_report(requester_vmpl=0,
                                             report_data=b"dh")
        second = processor.attestation_report(requester_vmpl=0,
                                              report_data=b"dh")
        assert second is first
        assert key.signs == 1
        # Deterministic signing: the kept report is what a fresh PSP
        # with the same key signs.
        fresh = SecureProcessor()
        fresh.measure_launch(b"good-boot-image")
        assert fresh.attestation_report(requester_vmpl=0,
                                        report_data=b"dh") == first

    @pytest.mark.parametrize("vmpl, data", [(0, b"other"), (3, b"dh")])
    def test_changed_request_is_signed_afresh(self, counted, vmpl, data):
        processor, key = counted
        first = processor.attestation_report(requester_vmpl=0,
                                             report_data=b"dh")
        changed = processor.attestation_report(requester_vmpl=vmpl,
                                               report_data=data)
        assert key.signs == 2
        assert changed.signature != first.signature
        assert (changed.requester_vmpl, changed.report_data) == \
            (vmpl, data.ljust(64, b"\x00"))
        self.make_user(processor).verify(changed, require_vmpl=vmpl)

    def test_failed_signature_is_not_kept(self):
        """A faulty CRT half raises every time; nothing is re-issued."""
        genuine = platform_signing_key()
        faulty = RsaKeyPair(genuine.public, d=genuine.d, p=genuine.p,
                            q=genuine.q)
        object.__setattr__(faulty, "dp", faulty.dp ^ 2)
        processor = SecureProcessor(faulty)
        processor.measure_launch(b"good-boot-image")
        for _ in range(2):
            with pytest.raises(SecurityViolation):
                processor.attestation_report(requester_vmpl=0,
                                             report_data=b"dh")

    @staticmethod
    def make_user(processor) -> RemoteUser:
        return RemoteUser(sha256(b"good-boot-image"), processor.public_key)


class TestRemoteUser:
    def make_user(self, psp) -> RemoteUser:
        return RemoteUser(sha256(b"good-boot-image"), psp.public_key)

    def test_valid_report_accepted(self, psp):
        user = self.make_user(psp)
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=b"\x00" * 32)
        user.verify(report)

    def test_measurement_mismatch_rejected(self, psp):
        user = RemoteUser(sha256(b"expected-other-image"),
                          psp.public_key)
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=b"")
        with pytest.raises(AttestationError):
            user.verify(report)

    def test_wrong_requester_vmpl_rejected(self, psp):
        """The OS (VMPL-3) cannot impersonate VeilMon (VMPL-0)."""
        user = self.make_user(psp)
        report = psp.attestation_report(requester_vmpl=3,
                                        report_data=b"")
        with pytest.raises(AttestationError):
            user.verify(report, require_vmpl=0)

    def test_forged_signature_rejected(self, psp):
        from repro.hv.attestation import AttestationReport
        user = self.make_user(psp)
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=b"")
        forged = AttestationReport(
            measurement=report.measurement, requester_vmpl=0,
            report_data=report.report_data,
            signature=bytes(len(report.signature)))
        with pytest.raises(AttestationError):
            user.verify(forged)

    def test_channel_key_binds_dh_public(self, psp):
        from repro.crypto import DhKeyPair
        user = self.make_user(psp)
        monitor_dh = DhKeyPair()
        blob = monitor_dh.public.to_bytes(256, "big")
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=sha256(blob))
        key = user.channel_key_from_report(report, blob)
        assert key == monitor_dh.shared_key(user.dh.public)

    def test_table_gives_the_same_channel_key(self, psp):
        from repro.crypto import DhKeyPair, FixedBase
        monitor_dh = DhKeyPair.from_seed(b"veilmon")
        blob = monitor_dh.public.to_bytes(256, "big")
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=sha256(blob))
        user = self.make_user(psp)
        key = user.channel_key_from_report(
            report, blob, table=FixedBase(monitor_dh.public))
        assert key == user.channel_key_from_report(report, blob) == \
            monitor_dh.shared_key(user.dh.public)

    def test_swapped_dh_public_rejected(self, psp):
        from repro.crypto import DhKeyPair
        user = self.make_user(psp)
        genuine = DhKeyPair().public.to_bytes(256, "big")
        attacker = DhKeyPair().public.to_bytes(256, "big")
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=sha256(genuine))
        with pytest.raises(AttestationError):
            user.channel_key_from_report(report, attacker)


class TestVerifierPolicy:
    """Relying-party digest and platform-key policy (fleet admission)."""

    def test_one_byte_digest_flip_rejected(self, psp):
        """Every single-byte deviation of the expected digest refuses."""
        good = sha256(b"good-boot-image")
        report = psp.attestation_report(requester_vmpl=0,
                                        report_data=b"")
        RemoteUser(good, psp.public_key).verify(report)
        for index in (0, 15, len(good) - 1):
            flipped = bytearray(good)
            flipped[index] ^= 0x01
            with pytest.raises(AttestationError):
                RemoteUser(bytes(flipped), psp.public_key).verify(report)

    def test_wrong_platform_key_rejected(self, psp):
        """A report signed by a different PSP never verifies, even with
        the right launch digest."""
        from repro.crypto import generate_keypair
        imposter = SecureProcessor(generate_keypair())
        imposter.measure_launch(b"good-boot-image")
        report = imposter.attestation_report(requester_vmpl=0,
                                             report_data=b"")
        # The relying party pinned the genuine platform key.
        user = RemoteUser(sha256(b"good-boot-image"), psp.public_key)
        with pytest.raises(AttestationError):
            user.verify(report)
        # Pinning the imposter's key would accept it -- the policy is
        # exactly the pinned key, nothing weaker.
        RemoteUser(sha256(b"good-boot-image"),
                   imposter.public_key).verify(report)
