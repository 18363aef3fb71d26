"""Equivalence tests for the attestation crypto fast paths.

RSA signs through the CRT and DH key generation reads a fixed-base
table; both must produce exactly the bytes of the textbook ``pow``.
"""

import random
import sys

import pytest

from repro.crypto import DhKeyPair, dh
from repro.crypto.rsa import RsaKeyPair, _digest_padded, generate_keypair
from repro.errors import SecurityViolation

KEYPAIR = generate_keypair()


def textbook_sign(keypair, message):
    n = keypair.public.n
    padded = int.from_bytes(_digest_padded(message, n), "big")
    return pow(padded, keypair.d, n).to_bytes((n.bit_length() + 7) // 8,
                                              "big")


class TestRsaCrt:
    def test_crt_sign_equals_textbook_pow(self):
        rng = random.Random(7)
        messages = [b"", b"module-blob"] + [
            rng.randbytes(rng.randrange(1, 200)) for _ in range(60)]
        for message in messages:
            assert KEYPAIR.sign(message) == textbook_sign(KEYPAIR, message)

    def test_crt_parameters(self):
        kp = KEYPAIR
        assert kp.p * kp.q == kp.public.n
        assert kp.dp == kp.d % (kp.p - 1)
        assert kp.dq == kp.d % (kp.q - 1)
        assert kp.qinv * kp.q % kp.p == 1

    def test_faulty_half_is_never_released(self):
        """A wrong CRT half (Bellcore fault) trips the verify guard."""
        faulty = RsaKeyPair(KEYPAIR.public, d=KEYPAIR.d, p=KEYPAIR.p,
                            q=KEYPAIR.q)
        object.__setattr__(faulty, "dp", faulty.dp ^ 2)
        with pytest.raises(SecurityViolation):
            faulty.sign(b"module-blob")

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ValueError):
            RsaKeyPair(KEYPAIR.public, d=KEYPAIR.d, p=KEYPAIR.p,
                       q=KEYPAIR.q + 2)


class TestFixedBaseTable:
    def test_table_equals_pow(self):
        rng = random.Random(11)
        exponents = [1, 3, (1 << 255) + 1, (1 << 256) - 1] + [
            rng.getrandbits(256) for _ in range(64)]
        for x in exponents:
            assert dh.generator_pow(x) == pow(2, x, dh.MODP_2048_P)

    def test_wide_exponent_falls_back(self):
        x = (1 << 256) | 0x1234567
        assert x.bit_length() == 257
        assert dh.generator_pow(x) == pow(2, x, dh.MODP_2048_P)

    def test_zero_exponent(self):
        assert dh.generator_pow(0) == 1

    def test_table_shape_and_size(self):
        table = dh._generator_table()
        assert len(table) == 64
        assert all(len(row) == 16 and row[0] == 1 for row in table)
        size = sys.getsizeof(table) + sum(
            sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row[1:])
            for row in table)
        assert size <= 512 * 1024

    def test_key_pairs_match_textbook_public(self):
        for pair in (DhKeyPair(), DhKeyPair.from_seed(b"veilmon"),
                     DhKeyPair(private=(1 << 300) + 1)):
            assert pair.public == pow(dh.GENERATOR, pair.private,
                                      dh.MODP_2048_P)
