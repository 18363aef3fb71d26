"""Authenticated stream cipher used for enclave page swapping.

No AES implementation is available offline, so this module provides an
HMAC-SHA256-based stream cipher in counter mode (a standard construction:
the keystream block ``i`` for nonce ``n`` is ``HMAC(key, n || i)``), plus an
encrypt-then-MAC authenticated mode.  The construction is semantically a
drop-in for AES-GCM at the level Veil needs: confidentiality plus integrity
with a caller-supplied nonce that VeilS-ENC derives from a per-page
freshness counter (section 6.2), making replay of stale swapped pages
detectable.
"""

from __future__ import annotations

import hmac
import secrets

from ..errors import SecurityViolation

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32
_BLOCK = 32  # HMAC-SHA256 output size


def generate_key() -> bytes:
    """Fresh random 32-byte cipher key."""
    return secrets.token_bytes(KEY_BYTES)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = -(-length // _BLOCK)
    return b"".join(
        hmac.digest(key, nonce + counter.to_bytes(8, "little"), "sha256")
        for counter in range(blocks))[:length]


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Raw CTR-mode XOR (encrypt == decrypt)."""
    if len(key) != KEY_BYTES:
        raise ValueError("bad key length")
    if len(nonce) != NONCE_BYTES:
        raise ValueError("bad nonce length")
    # One big-integer XOR, pinned by the known-answer tests; a real
    # AES-CTR implementation also folds the keystream in word-at-a-time.
    n = len(data)
    ks = _keystream(key, nonce, n)
    return (int.from_bytes(data, "big") ^
            int.from_bytes(ks, "big")).to_bytes(n, "big")


def seal(key: bytes, nonce: bytes, plaintext: bytes,
         aad: bytes = b"") -> bytes:
    """Encrypt-then-MAC: returns ``ciphertext || tag``.

    ``aad`` binds contextual metadata (e.g. enclave id, vpn, freshness
    counter) into the tag without encrypting it.
    """
    ct = stream_xor(key, nonce, plaintext)
    tag = hmac.digest(key, b"seal" + nonce + aad + ct, "sha256")
    return ct + tag


def open_sealed(key: bytes, nonce: bytes, sealed: bytes,
                aad: bytes = b"") -> bytes:
    """Verify and decrypt a :func:`seal` output.

    Raises :class:`SecurityViolation` on tag mismatch -- VeilS-ENC treats
    that as the OS returning a corrupted or stale swapped page.
    """
    if len(sealed) < TAG_BYTES:
        raise SecurityViolation("sealed blob too short")
    ct, tag = sealed[:-TAG_BYTES], sealed[-TAG_BYTES:]
    expect = hmac.digest(key, b"seal" + nonce + aad + ct, "sha256")
    if not hmac.compare_digest(tag, expect):
        raise SecurityViolation("authenticated decryption failed")
    return stream_xor(key, nonce, ct)


#: Largest counter representable in a :data:`NONCE_BYTES` nonce.  A
#: counter past this would wrap the nonce space and reuse keystream.
MAX_NONCE_COUNTER = (1 << (8 * NONCE_BYTES)) - 1


def nonce_from_counter(counter: int) -> bytes:
    """Deterministic nonce derived from a freshness counter.

    Counter exhaustion is a security event, not an arithmetic accident:
    a counter outside ``[0, MAX_NONCE_COUNTER]`` would alias an earlier
    nonce (or is plainly invalid), so it raises
    :class:`SecurityViolation` rather than escaping as a bare
    ``OverflowError`` from ``int.to_bytes``.
    """
    if not 0 <= counter <= MAX_NONCE_COUNTER:
        raise SecurityViolation(
            f"nonce counter {counter} outside the {NONCE_BYTES}-byte "
            "nonce space (sequence exhausted?)")
    return counter.to_bytes(NONCE_BYTES, "little")
