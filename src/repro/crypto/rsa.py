"""Minimal RSA signatures (hash-and-sign) for module and attestation keys.

Pure-Python RSA with Miller–Rabin key generation.  Used for:

* kernel-module signatures verified by VeilS-KCI;
* the AMD-processor-rooted attestation report signature.

Keys default to 1024 bits to keep test suites fast; this is a fidelity
trade-off documented in DESIGN.md, not a recommendation.

Signing uses the Chinese Remainder Theorem: the key pair keeps its primes
``p`` and ``q`` with ``dp = d mod (p-1)``, ``dq = d mod (q-1)`` and
``qinv = q^-1 mod p``, exponentiates modulo each prime, and recombines
with Garner's formula -- about 2.6x cheaper than ``pow(m, d, n)`` and
byte-identical to it.  A CRT signer that computes one half wrongly leaks
a factor of ``n`` through the faulty signature (the Bellcore attack), so
every signature is checked with the public exponent before it leaves
:meth:`RsaKeyPair.sign`; the check costs one short ``pow(s, e, n)``.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field

from ..errors import SecurityViolation

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _is_probable_prime(n: int, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _candidate_bits(bits: int, seed: bytes | None):
    """Endless stream of ``bits``-wide random integers.

    Unseeded, each draw comes from ``secrets``.  Seeded, the stream is
    SHA-256 in counter mode over ``seed``, so the same seed yields the
    same key every time.
    """
    if seed is None:
        while True:
            yield secrets.randbits(bits)
    width = (bits + 7) // 8
    counter = 0
    while True:
        stream = b""
        while len(stream) < width:
            stream += hashlib.sha256(b"veil-rsa|" + seed + b"|" +
                                     counter.to_bytes(8, "big")).digest()
            counter += 1
        yield int.from_bytes(stream[:width], "big") >> (width * 8 - bits)


def _random_prime(bits: int, draws) -> int:
    while True:
        candidate = next(draws) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SecurityViolation` unless the signature is valid."""
        sig_int = int.from_bytes(signature, "big")
        if not 0 < sig_int < self.n:
            raise SecurityViolation("signature out of range")
        recovered = pow(sig_int, self.e, self.n)
        expected = int.from_bytes(_digest_padded(message, self.n), "big")
        if recovered != expected:
            raise SecurityViolation("RSA signature verification failed")

    def fingerprint(self) -> str:
        """Short stable identifier for the public key."""
        blob = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA private key in CRT form; ``d`` is kept as the reference."""

    public: RsaPublicKey
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False)
    dq: int = field(init=False, repr=False)
    qinv: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.p * self.q != self.public.n:
            raise ValueError("RSA primes do not multiply to the modulus")
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", pow(self.q, -1, self.p))

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with deterministic padding.

        Raises :class:`SecurityViolation` if the CRT result fails the
        public-exponent check (a faulty half must never be released).
        """
        n = self.public.n
        padded = int.from_bytes(_digest_padded(message, n), "big")
        sig_p = pow(padded, self.dp, self.p)
        sig_q = pow(padded, self.dq, self.q)
        sig = sig_q + self.q * (self.qinv * (sig_p - sig_q) % self.p)
        if pow(sig, self.public.e, n) != padded:
            raise SecurityViolation("RSA-CRT signature failed its check")
        return sig.to_bytes((n.bit_length() + 7) // 8, "big")


def _digest_padded(message: bytes, modulus: int) -> bytes:
    """Deterministic full-domain-style padding of SHA-256(message)."""
    size = (modulus.bit_length() + 7) // 8
    digest = hashlib.sha256(message).digest()
    stretched = bytearray()
    counter = 0
    while len(stretched) < size - 1:
        stretched.extend(hashlib.sha256(
            digest + counter.to_bytes(4, "big")).digest())
        counter += 1
    # Leading zero byte keeps the padded value below the modulus.
    return bytes([0]) + bytes(stretched[:size - 1])


def generate_keypair(bits: int = 1024, e: int = 65537, *,
                     seed: bytes | None = None) -> RsaKeyPair:
    """Generate an RSA key pair (probabilistic primes, standard e).

    ``seed`` derives the prime candidates from stable bytes instead of
    ``secrets``, for keys whose identity must replay across processes.
    """
    draws = _candidate_bits(bits // 2, seed)
    while True:
        p = _random_prime(bits // 2, draws)
        q = _random_prime(bits // 2, draws)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RsaKeyPair(RsaPublicKey(n=n, e=e), d=d, p=p, q=q)
