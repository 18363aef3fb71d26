"""Self-contained cryptography used by the Veil reproduction.

Everything here is implemented from the standard library (hashlib/hmac/
secrets) because no third-party crypto package is available offline:

* :mod:`~repro.crypto.hashes` -- SHA-256, measurement chains, page records;
* :mod:`~repro.crypto.cipher` -- HMAC-CTR stream cipher + encrypt-then-MAC;
* :mod:`~repro.crypto.dh` -- finite-field Diffie-Hellman (RFC 3526);
* :mod:`~repro.crypto.rsa` -- minimal RSA signatures (module signing,
  attestation reports);
* :mod:`~repro.crypto.channel` -- replay-protected secure channel.
"""

from .channel import MAX_SEQUENCE, SecureChannel, channel_pair
from .cipher import (KEY_BYTES, MAX_NONCE_COUNTER, NONCE_BYTES, TAG_BYTES,
                     generate_key, nonce_from_counter, open_sealed, seal,
                     stream_xor)
from .dh import DhKeyPair, FixedBase
from .hashes import MeasurementChain, page_measurement, sha256, sha256_hex
from .rsa import RsaKeyPair, RsaPublicKey, generate_keypair

__all__ = [
    "SecureChannel", "channel_pair", "MAX_SEQUENCE", "MAX_NONCE_COUNTER",
    "KEY_BYTES", "NONCE_BYTES",
    "TAG_BYTES", "generate_key", "nonce_from_counter", "open_sealed",
    "seal", "stream_xor", "DhKeyPair", "FixedBase", "MeasurementChain",
    "page_measurement", "sha256", "sha256_hex", "RsaKeyPair",
    "RsaPublicKey", "generate_keypair",
]
