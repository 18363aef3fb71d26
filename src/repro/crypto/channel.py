"""Authenticated secure channel between a remote user and trusted software.

After attestation (see :mod:`repro.hv.attestation`) both ends hold a DH
shared key.  :class:`SecureChannel` provides sealed, replay-protected
record passing over an untrusted transport (the paper routes it through the
untrusted kernel's network stack; here the transport is just bytes the
caller may tamper with in tests).

Two delivery models, chosen per channel:

* **Strict in-order** (``window=0``, the default): the receiver accepts
  exactly the next sequence number.  Any drop, reorder, or replay is a
  :class:`SecurityViolation`.  This is the right model for the in-CVM
  monitor channel, where the transport is lossless and any deviation is
  an attack.
* **Sliding-window** (``window=N``): the receiver accepts records whose
  authenticated counters are new and within ``N`` of the highest counter
  seen (the DTLS/IPsec anti-replay window).  Drops become gaps,
  reordered records inside the window are accepted once, and replays --
  any counter already seen -- still raise.  The fleet's inter-host links
  use this, because the datacenter fabric is adversarial: it may drop,
  duplicate, and reorder at will, and the channel must remain usable
  afterwards rather than desynchronizing forever.

Sequence numbers are bounded by the nonce space
(:data:`~repro.crypto.cipher.MAX_NONCE_COUNTER`); exhausting them raises
:class:`SecurityViolation` rather than wrapping into nonce reuse.
"""

from __future__ import annotations

import json

from ..errors import SecurityViolation
from . import cipher

#: Highest usable per-direction sequence number: the nonce is the
#: little-endian counter, so the sequence space IS the nonce space.
MAX_SEQUENCE = cipher.MAX_NONCE_COUNTER

#: Byte-identical to ``json.dumps(payload, sort_keys=True)``, which builds
#: a fresh encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


class SecureChannel:
    """Symmetric channel with per-direction sequence numbers."""

    def __init__(self, key: bytes, *, role: str, window: int = 0):
        if role not in ("initiator", "responder"):
            raise ValueError("role must be 'initiator' or 'responder'")
        if window < 0:
            raise ValueError("window must be >= 0")
        self.key = key
        self.role = role
        self.window = window
        self._send_seq = 0
        self._recv_seq = 0
        # Sliding-window state: highest authenticated counter accepted so
        # far (-1 before the first record) and a bitmask of the counters
        # at and below it that have been seen (bit i = _recv_max - i).
        self._recv_max = -1
        self._recv_seen = 0

    def _direction(self, sending: bool) -> bytes:
        outbound = (self.role == "initiator") == sending
        return b"i2r" if outbound else b"r2i"

    def send(self, payload: dict) -> bytes:
        """Seal a JSON payload into a wire record.

        Raises :class:`SecurityViolation` once the send sequence space
        is exhausted -- continuing would reuse a nonce.
        """
        if self._send_seq > MAX_SEQUENCE:
            raise SecurityViolation(
                "channel send sequence space exhausted")
        blob = _ENCODER.encode(payload).encode("utf-8")
        nonce = cipher.nonce_from_counter(self._send_seq)
        aad = self._direction(sending=True) + nonce
        record = cipher.seal(self.key, nonce, blob, aad=aad)
        self._send_seq += 1
        return nonce + record

    def receive(self, wire: bytes) -> dict:
        """Verify sequence + tag, then decode the payload.

        Strict channels reject any out-of-order record; windowed
        channels reject replays (counters already seen) and stale
        records that fell behind the window.  Tampered records fail the
        MAC.  All of these raise :class:`SecurityViolation`.
        """
        if len(wire) < cipher.NONCE_BYTES + cipher.TAG_BYTES:
            raise SecurityViolation("short channel record")
        nonce, record = wire[:cipher.NONCE_BYTES], wire[cipher.NONCE_BYTES:]
        if self.window:
            return self._receive_windowed(nonce, record)
        expected = cipher.nonce_from_counter(self._recv_seq)
        if nonce != expected:
            raise SecurityViolation("channel sequence violation (replay?)")
        blob = self._open(nonce, record)
        self._recv_seq += 1
        return json.loads(blob.decode("utf-8"))

    def _open(self, nonce: bytes, record: bytes) -> bytes:
        """Authenticate and decrypt one record body."""
        aad = self._direction(sending=False) + nonce
        return cipher.open_sealed(self.key, nonce, record, aad=aad)

    def _receive_windowed(self, nonce: bytes, record: bytes) -> dict:
        """Sliding-window acceptance: new counters within the window.

        The counter is read from the wire nonce but only *trusted* after
        the MAC verifies (the nonce is bound into the AAD, so a forged
        counter cannot authenticate).  Window state advances only for
        authenticated records, so garbage cannot push the window.
        """
        counter = int.from_bytes(nonce, "little")
        if counter <= self._recv_max:
            behind = self._recv_max - counter
            if behind >= self.window:
                raise SecurityViolation(
                    "channel record fell behind the replay window")
            if self._recv_seen >> behind & 1:
                raise SecurityViolation(
                    "channel replay detected (counter already seen)")
        blob = self._open(nonce, record)
        if counter > self._recv_max:
            self._recv_seen = (self._recv_seen <<
                               (counter - self._recv_max) | 1)
            self._recv_seen &= (1 << self.window) - 1
            self._recv_max = counter
        else:
            self._recv_seen |= 1 << (self._recv_max - counter)
        return json.loads(blob.decode("utf-8"))


def channel_pair(key: bytes, *,
                 window: int = 0) -> tuple[SecureChannel, SecureChannel]:
    """Matched (initiator, responder) channel endpoints for tests."""
    return (SecureChannel(key, role="initiator", window=window),
            SecureChannel(key, role="responder", window=window))
