"""Equivalence tests for the crypto fast paths.

RSA signs through the CRT, and DH raises the generator (and a recurring
peer value) through a fixed-base table; each must produce exactly the
bytes of the textbook ``pow``.  The cipher's HMAC runs from a key
schedule with its pad states precomputed; it must produce exactly the
bytes of ``hmac``.
"""

import hashlib
import hmac
import random
import sys

import pytest
from hypothesis import given, strategies as st

from repro.crypto import DhKeyPair, cipher, dh
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


#: The generator and seeded random bases in [2, p - 2].
BASES = [dh.GENERATOR] + [
    random.Random(5).randrange(2, dh.MODP_2048_P - 1) for _ in range(3)]


class TestFixedBaseTable:
    def test_table_equals_pow(self):
        rng = random.Random(11)
        exponents = [1, 3, (1 << 255) + 1, (1 << 256) - 1] + [
            rng.getrandbits(256) for _ in range(64)]
        for base in BASES:
            table = dh.FixedBase(base)
            for x in exponents:
                assert table.pow(x) == pow(base, x, dh.MODP_2048_P)

    def test_wide_exponent_falls_back(self):
        x = (1 << 256) | 0x1234567
        assert x.bit_length() == 257
        for base in BASES:
            assert dh.FixedBase(base).pow(x) == pow(base, x, dh.MODP_2048_P)

    def test_zero_exponent(self):
        for base in BASES:
            assert dh.FixedBase(base).pow(0) == 1

    def test_table_shape_and_size(self):
        table = dh._GENERATOR_TABLE.rows
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


class TestSharedKeyTable:
    def test_table_gives_the_pow_key(self):
        monitor = DhKeyPair.from_seed(b"veilmon")
        table = dh.FixedBase(monitor.public)
        for session in range(4):
            user = DhKeyPair.from_seed(b"remote-user", bytes([session]))
            assert user.shared_key(monitor.public, table) == \
                user.shared_key(monitor.public) == \
                monitor.shared_key(user.public)

    def test_table_for_another_base_is_never_used(self):
        user = DhKeyPair.from_seed(b"remote-user")
        monitor = DhKeyPair.from_seed(b"veilmon")
        other = dh.FixedBase(DhKeyPair.from_seed(b"other").public)
        assert user.shared_key(monitor.public, other) == \
            user.shared_key(monitor.public)
        assert "rows" not in vars(other)

    def test_range_check_runs_before_the_table(self):
        user = DhKeyPair.from_seed(b"remote-user")
        for bad in (1, dh.MODP_2048_P - 1):
            with pytest.raises(ValueError):
                user.shared_key(bad, dh.FixedBase(bad))


class TestKeySchedule:
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=300))
    def test_mac_equals_hmac(self, key, message):
        assert cipher.KeySchedule(key).mac(message) == \
            hmac.new(key, message, hashlib.sha256).digest()

    @given(st.binary(min_size=32, max_size=32),
           st.binary(min_size=16, max_size=16), st.binary(max_size=200),
           st.binary(max_size=24))
    def test_schedule_reuse_equals_a_fresh_key(self, key, nonce, data,
                                               aad):
        """One schedule, used many times, gives every call's bytes."""
        schedule = cipher.KeySchedule(key)
        for _ in range(2):
            assert schedule.seal(nonce, data, aad) == \
                cipher.seal(key, nonce, data, aad)
            assert schedule.stream_xor(nonce, data) == \
                cipher.stream_xor(key, nonce, data)
        assert schedule.open_sealed(nonce, schedule.seal(nonce, data, aad),
                                    aad) == data

    @pytest.mark.parametrize("key", [b"", b"k" * 31, b"k" * 33, b"k" * 64])
    def test_wrong_key_length_refused(self, key):
        with pytest.raises(ValueError, match="bad key length"):
            cipher.KeySchedule(key)

    def test_no_one_shot_hmac_left(self, monkeypatch):
        """Sealing and opening run on the schedule, not hmac.digest."""
        def refuse(*args, **kwargs):
            raise AssertionError("hmac.digest called")
        monkeypatch.setattr(hmac, "digest", refuse)
        key, nonce = b"\x11" * 32, cipher.nonce_from_counter(1)
        sealed = cipher.seal(key, nonce, b"x" * 100, b"aad")
        assert cipher.open_sealed(key, nonce, sealed, b"aad") == b"x" * 100
