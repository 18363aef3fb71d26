"""Hashing and measurement chains.

Veil uses SHA-256 in three places: the boot-image launch digest, enclave
measurements (page contents + metadata), and the freshness-protected
integrity hashes guarding swapped-out enclave pages.  This module wraps
:mod:`hashlib` with the small structured helpers those uses need.
"""

from __future__ import annotations

import hashlib


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest."""
    return hashlib.sha256(data).hexdigest()


class MeasurementChain:
    """An extendable measurement, SGX/TPM style.

    Each :meth:`extend` folds a labeled record into the running digest:
    ``digest = SHA256(digest || label || len(data) || data)``.  The order of
    extensions matters, which is what makes layout tampering detectable.
    """

    def __init__(self):
        self._digest = b"\x00" * 32

    def extend(self, label: str, data: bytes) -> None:
        """Fold a labeled record into the running digest."""
        record = (self._digest + label.encode("utf-8") +
                  len(data).to_bytes(8, "little") + data)
        self._digest = sha256(record)

    @property
    def digest(self) -> bytes:
        return self._digest

    @property
    def hexdigest(self) -> str:
        return self._digest.hex()


def page_measurement(content: bytes, *, vpn: int, writable: bool,
                     executable: bool) -> bytes:
    """Measurement record for one enclave page: contents + metadata.

    The paper (section 6.2) derives the enclave measurement from both page
    contents and metadata such as permissions; folding the vpn in also
    captures layout.
    """
    meta = (vpn.to_bytes(8, "little") +
            bytes([writable]) + bytes([executable]))
    return sha256(meta + content)
