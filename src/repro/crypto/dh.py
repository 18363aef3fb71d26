"""Finite-field Diffie–Hellman for the remote-user secure channel.

The SEV-SNP attestation digest carries "additional data (e.g. information
to establish a Diffie-Hellman shared key)" (paper section 5.1).  We model
that with classic DH over the RFC 3526 2048-bit MODP group; the shared
secret is hashed into a symmetric channel key.

Raising a base that recurs uses a :class:`FixedBase` table: the 256-bit
exponent is read as 64 radix-16 digits and row ``i`` holds
``b^(j * 16^i)`` for ``j`` in 1..15, which turns ~300 modular squarings
and multiplies into at most 64 multiplies.  A table (64 x 15 entries,
about 290 KiB) is built on its first use.  Exponents wider than 256 bits
take plain ``pow``.  Key generation always raises the generator, so it
always reads the generator's table.  ``shared_key`` raises the peer's
value and takes a table for it when the caller has one: a relying party
that re-attests a monitor sees the same monitor value every time.  A
peer value that is fresh each handshake stays on ``pow``.
"""

from __future__ import annotations

import functools
import hashlib
import secrets

# RFC 3526 group 14 (2048-bit MODP).
MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16)
GENERATOR = 2

#: Fixed-base table geometry: one row per 4-bit digit of a 256-bit
#: exponent (private values from ``secrets`` and ``from_seed`` are 256
#: bits wide).
_DIGIT_BITS = 4
_TABLE_EXPONENT_BITS = 256
_TABLE_ROWS = _TABLE_EXPONENT_BITS // _DIGIT_BITS


class FixedBase:
    """Radix-16 fixed-base table for raising one ``base`` mod the group
    prime; the rows are built on the first :meth:`pow`."""

    def __init__(self, base: int):
        self.base = base

    @functools.cached_property
    def rows(self) -> "tuple[tuple[int, ...], ...]":
        """Row ``i`` is ``(1, b, b^2, ..., b^15)`` for ``b = base^(16^i)``."""
        rows = []
        power = self.base
        for _ in range(_TABLE_ROWS):
            row = [1, power]
            for _ in range((1 << _DIGIT_BITS) - 2):
                row.append(row[-1] * power % MODP_2048_P)
            rows.append(tuple(row))
            power = row[-1] * power % MODP_2048_P
        return tuple(rows)

    def pow(self, exponent: int) -> int:
        """``pow(self.base, exponent, MODP_2048_P)`` via the table."""
        if not 0 <= exponent < 1 << _TABLE_EXPONENT_BITS:
            return pow(self.base, exponent, MODP_2048_P)
        result = 1
        mask = (1 << _DIGIT_BITS) - 1
        for row in self.rows:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                result = result * row[digit] % MODP_2048_P
            exponent >>= _DIGIT_BITS
        return result


#: The generator's table, shared by every key pair in the process.
_GENERATOR_TABLE = FixedBase(GENERATOR)


class DhKeyPair:
    """One party's ephemeral DH key pair."""

    def __init__(self, private: int | None = None):
        self.private = private if private is not None else (
            secrets.randbits(256) | 1)
        self.public = _GENERATOR_TABLE.pow(self.private)

    @classmethod
    def from_seed(cls, *parts: bytes) -> "DhKeyPair":
        """Key pair derived from stable identity, for *simulated* parties.

        The byte-identical-replay contract (veil-chaos) forbids ambient
        entropy anywhere the fabric transcript can see, and DH public
        values travel inside attestation replies -- so the monitor and
        the modeled relying party derive their pair from stable identity
        rather than ``secrets``.  The default entropy path above remains
        for anything standing in for a real external tenant.
        """
        blob = hashlib.sha256(b"veil-dh|" + b"|".join(parts)).digest()
        return cls(private=int.from_bytes(blob, "big") | 1)

    def shared_key(self, peer_public: int,
                   table: FixedBase | None = None) -> bytes:
        """Derive the 32-byte symmetric channel key.

        ``table`` is used only when its base is ``peer_public``; any
        other table leaves the exponentiation on ``pow``.
        """
        if not 1 < peer_public < MODP_2048_P - 1:
            raise ValueError("peer public value out of range")
        if table is not None and table.base == peer_public:
            secret = table.pow(self.private)
        else:
            secret = pow(peer_public, self.private, MODP_2048_P)
        blob = secret.to_bytes((MODP_2048_P.bit_length() + 7) // 8, "big")
        return hashlib.sha256(b"veil-channel" + blob).digest()
