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

import hashlib
import hmac
import secrets

from ..errors import SecurityViolation

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32
_BLOCK = 32  # HMAC-SHA256 output size
_PAD_BLOCK = 64  # SHA-256 input block; each HMAC pad fills one
#: ``bytes.translate`` tables XORing every byte with the HMAC pads.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def generate_key() -> bytes:
    """Fresh random 32-byte cipher key."""
    return secrets.token_bytes(KEY_BYTES)


class KeySchedule:
    """HMAC-SHA256 under one key, with its pad states computed once.

    HMAC (RFC 2104) hashes ``K ^ ipad`` and ``K ^ opad`` ahead of every
    message.  This object keeps the SHA-256 state after each pad block,
    so one MAC costs two state copies and the compressions of the
    message itself.  The owner of a key builds its schedule once:
    :class:`~repro.crypto.channel.SecureChannel` in its constructor,
    VeilS-ENC per enclave record.  The module-level :func:`seal`,
    :func:`open_sealed` and :func:`stream_xor` build a schedule per call.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise ValueError("bad key length")
        padded = bytes(key).ljust(_PAD_BLOCK, b"\x00")
        self._inner = hashlib.sha256(padded.translate(_IPAD))
        self._outer = hashlib.sha256(padded.translate(_OPAD))

    def mac(self, message: bytes) -> bytes:
        """``HMAC-SHA256(key, message)``."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """``length`` bytes of ``HMAC(key, nonce || counter)`` blocks."""
        prefix = self._inner.copy()
        prefix.update(nonce)
        outer_state = self._outer
        blocks = []
        for counter in range(-(-length // _BLOCK)):
            inner = prefix.copy()
            inner.update(counter.to_bytes(8, "little"))
            outer = outer_state.copy()
            outer.update(inner.digest())
            blocks.append(outer.digest())
        return b"".join(blocks)[:length]

    def stream_xor(self, nonce: bytes, data: bytes) -> bytes:
        """Raw CTR-mode XOR (encrypt == decrypt)."""
        if len(nonce) != NONCE_BYTES:
            raise ValueError("bad nonce length")
        # One big-integer XOR, pinned by the known-answer tests; a real
        # AES-CTR implementation also folds the keystream in word-at-a-time.
        n = len(data)
        ks = self.keystream(nonce, n)
        return (int.from_bytes(data, "big") ^
                int.from_bytes(ks, "big")).to_bytes(n, "big")

    def seal(self, nonce: bytes, plaintext: bytes,
             aad: bytes = b"") -> bytes:
        """Encrypt-then-MAC: returns ``ciphertext || tag``.

        ``aad`` binds contextual metadata (e.g. enclave id, vpn, freshness
        counter) into the tag without encrypting it.
        """
        ct = self.stream_xor(nonce, plaintext)
        return ct + self.mac(b"seal" + nonce + aad + ct)

    def open_sealed(self, nonce: bytes, sealed: bytes,
                    aad: bytes = b"") -> bytes:
        """Verify and decrypt a :meth:`seal` output.

        Raises :class:`SecurityViolation` on tag mismatch -- VeilS-ENC
        treats that as the OS returning a corrupted or stale swapped page.
        """
        if len(sealed) < TAG_BYTES:
            raise SecurityViolation("sealed blob too short")
        ct, tag = sealed[:-TAG_BYTES], sealed[-TAG_BYTES:]
        expect = self.mac(b"seal" + nonce + aad + ct)
        if not hmac.compare_digest(tag, expect):
            raise SecurityViolation("authenticated decryption failed")
        return self.stream_xor(nonce, ct)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    return KeySchedule(key).keystream(nonce, length)


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Raw CTR-mode XOR (encrypt == decrypt) under ``key``."""
    return KeySchedule(key).stream_xor(nonce, data)


def seal(key: bytes, nonce: bytes, plaintext: bytes,
         aad: bytes = b"") -> bytes:
    """:meth:`KeySchedule.seal` under ``key``: ``ciphertext || tag``."""
    return KeySchedule(key).seal(nonce, plaintext, aad)


def open_sealed(key: bytes, nonce: bytes, sealed: bytes,
                aad: bytes = b"") -> bytes:
    """:meth:`KeySchedule.open_sealed` under ``key``.

    Raises :class:`SecurityViolation` on tag mismatch and
    :class:`ValueError` for a key that is not :data:`KEY_BYTES` long.
    """
    return KeySchedule(key).open_sealed(nonce, sealed, aad)


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
