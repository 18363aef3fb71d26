"""Known-answer tests pinning the stream cipher.

The keystream XOR is one big-integer XOR and every HMAC is a one-shot
``hmac.digest``.  These vectors were captured from the historical
per-byte, ``hmac.new`` implementation, so the cipher must reproduce them
bit-for-bit -- ciphertexts, tags, and raw keystream alike.  Each KAT runs
with ``VEIL_WARP`` unset and with ``VEIL_WARP=0``: the knob is gone, and a
value left over in the environment must not reach the cipher.
"""

import hashlib
import hmac

import pytest

from repro.crypto import cipher
from repro.errors import SecurityViolation

KEY = bytes(range(32))
NONCE = bytes(range(16))
PT = bytes((i * 7 + 3) % 256 for i in range(100))
AAD = b"veil-kat-aad"

KS64_HEX = (
    "1b2a55b77e01b6ed4e7b828f99750ee40c5875643bec1937c2d3c0af84c86d6c"
    "2d7ae75cabad17db696ab50ce15e67422408896ee0056799125b15dab807dd63")
XOR_HEX = (
    "182044af61279bd97539cbdfce2b6b887f22f4ecb47a84936961796f4306b8b0"
    "ce9016a454ab1acf72489c3cd660220e7752e8068f731a1d99c98c7a1fa968df"
    "c6e98d663a6119886878a21632385ed65650d1f82d7f8838f9ea8aecc1a68722"
    "d58f30d1")
SEAL_HEX = XOR_HEX + (
    "ce4bbc11dc3eda802e1ba2c09386ad159a0f0abdc45d473c57875b73d9c62e62")
SEAL_EMPTY_HEX = (
    "cc113ea90740058ee072e6fd854c05766a2501f5c84ba3a06797ffc75578618e")
XOR_ZEROS_SHA = (
    "73df4376b297fa2a40405f5acc42ba7b8800614b1c11c83a7e7651347e02f57a")


@pytest.fixture(params=["warp", "classic"])
def warp_mode(request, monkeypatch):
    """Run each KAT with a stale ``VEIL_WARP`` unset and off."""
    if request.param == "classic":
        monkeypatch.setenv("VEIL_WARP", "0")
    else:
        monkeypatch.delenv("VEIL_WARP", raising=False)
    return request.param


def test_keystream_kat(warp_mode):
    assert cipher._keystream(KEY, NONCE, 64).hex() == KS64_HEX


def test_stream_xor_kat(warp_mode):
    assert cipher.stream_xor(KEY, NONCE, PT).hex() == XOR_HEX


def test_stream_xor_zeros_reveals_keystream(warp_mode):
    out = cipher.stream_xor(KEY, NONCE, bytes(256))
    assert hashlib.sha256(out).hexdigest() == XOR_ZEROS_SHA
    assert out[:64].hex() == KS64_HEX


def test_seal_kat(warp_mode):
    assert cipher.seal(KEY, NONCE, PT, AAD).hex() == SEAL_HEX


def test_seal_empty_kat(warp_mode):
    assert cipher.seal(KEY, NONCE, b"", b"").hex() == SEAL_EMPTY_HEX


def test_open_sealed_roundtrip_kat(warp_mode):
    assert cipher.open_sealed(
        KEY, NONCE, bytes.fromhex(SEAL_HEX), AAD) == PT


def test_open_sealed_rejects_flip(warp_mode):
    sealed = bytearray(bytes.fromhex(SEAL_HEX))
    sealed[3] ^= 0x40
    with pytest.raises(SecurityViolation):
        cipher.open_sealed(KEY, NONCE, bytes(sealed), AAD)


def reference_keystream(key, nonce, length):
    """The historical block loop: ``hmac.new`` per counter block."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hmac.new(key, nonce + counter.to_bytes(8, "little"),
                            hashlib.sha256).digest())
        counter += 1
    return bytes(out[:length])


def test_modes_agree_on_odd_lengths():
    """Bulk XOR equals the per-byte reference on every length 0..67
    (word-edge cases)."""
    for length in range(68):
        data = bytes((i * 31 + 5) % 256 for i in range(length))
        ks = reference_keystream(KEY, NONCE, length)
        out = cipher.stream_xor(KEY, NONCE, data)
        assert out == bytes(a ^ b for a, b in zip(data, ks))
        assert len(out) == length


def test_keystream_matches_block_loop():
    """One-shot keystream equals the ``hmac.new`` loop across block
    boundaries."""
    for length in (0, 1, 31, 32, 33, 63, 64, 65, 100, 257):
        assert cipher._keystream(KEY, NONCE, length) == \
            reference_keystream(KEY, NONCE, length)


def test_seal_tag_matches_hmac_new():
    """The one-shot tag equals ``hmac.new`` over ``seal||nonce||aad||ct``."""
    sealed = cipher.seal(KEY, NONCE, PT, AAD)
    ct, tag = sealed[:-cipher.TAG_BYTES], sealed[-cipher.TAG_BYTES:]
    assert tag == hmac.new(KEY, b"seal" + NONCE + AAD + ct,
                           hashlib.sha256).digest()


def test_cipher_reads_no_environment(monkeypatch):
    """Sealing and opening read no environment variable at all."""
    import os
    reads = []

    class RecordingEnviron(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            reads.append(key)
            return super().__contains__(key)

        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)
    monkeypatch.setattr(os, "environ", RecordingEnviron(os.environ))
    cipher.seal(KEY, NONCE, PT, AAD)
    cipher.open_sealed(KEY, NONCE, bytes.fromhex(SEAL_HEX), AAD)
    assert reads == []
