"""Unit tests: Diffie-Hellman, RSA signatures, and the secure channel."""

import pytest

from repro.crypto import (DhKeyPair, SecureChannel, channel_pair,
                          generate_key)
from repro.crypto.rsa import generate_keypair
from repro.errors import SecurityViolation

# One shared keypair: RSA keygen dominates test time otherwise.
KEYPAIR = generate_keypair()


class TestDiffieHellman:
    def test_shared_key_agreement(self):
        alice, bob = DhKeyPair(), DhKeyPair()
        assert alice.shared_key(bob.public) == bob.shared_key(alice.public)

    def test_distinct_pairs_distinct_keys(self):
        alice, bob, carol = DhKeyPair(), DhKeyPair(), DhKeyPair()
        assert alice.shared_key(bob.public) != \
            alice.shared_key(carol.public)

    def test_degenerate_public_rejected(self):
        alice = DhKeyPair()
        for bad in (0, 1):
            with pytest.raises(ValueError):
                alice.shared_key(bad)


class TestRsa:
    def test_sign_verify_roundtrip(self):
        sig = KEYPAIR.sign(b"module-blob")
        KEYPAIR.public.verify(b"module-blob", sig)

    def test_wrong_message_rejected(self):
        sig = KEYPAIR.sign(b"module-blob")
        with pytest.raises(SecurityViolation):
            KEYPAIR.public.verify(b"other-blob", sig)

    def test_corrupted_signature_rejected(self):
        sig = bytearray(KEYPAIR.sign(b"module-blob"))
        sig[5] ^= 0xFF
        with pytest.raises(SecurityViolation):
            KEYPAIR.public.verify(b"module-blob", bytes(sig))

    def test_out_of_range_signature_rejected(self):
        with pytest.raises(SecurityViolation):
            KEYPAIR.public.verify(b"m", b"\x00" * 8)

    def test_fingerprint_stable(self):
        assert KEYPAIR.public.fingerprint() == \
            KEYPAIR.public.fingerprint()
        assert len(KEYPAIR.public.fingerprint()) == 16


class TestSeededRsa:
    def test_same_seed_same_key(self):
        first = generate_keypair(seed=b"test-seed")
        second = generate_keypair(seed=b"test-seed")
        assert first == second

    def test_seeded_key_signs_and_verifies(self):
        key = generate_keypair(seed=b"test-seed")
        assert key.public.n.bit_length() in (1023, 1024)
        key.public.verify(b"module-blob", key.sign(b"module-blob"))

    def test_seeds_pick_different_keys(self):
        assert generate_keypair(seed=b"a").public != \
            generate_keypair(seed=b"b").public

    def test_unseeded_keys_differ(self):
        assert generate_keypair(bits=512).public != \
            generate_keypair(bits=512).public


class TestSecureChannel:
    def test_bidirectional_exchange(self):
        user, monitor = channel_pair(generate_key())
        wire = user.send({"cmd": "get_logs"})
        assert monitor.receive(wire) == {"cmd": "get_logs"}
        reply = monitor.send({"logs": ["a", "b"]})
        assert user.receive(reply) == {"logs": ["a", "b"]}

    def test_tampering_detected(self):
        user, monitor = channel_pair(generate_key())
        wire = bytearray(user.send({"cmd": "clear"}))
        wire[-3] ^= 1
        with pytest.raises(SecurityViolation):
            monitor.receive(bytes(wire))

    def test_replay_detected(self):
        user, monitor = channel_pair(generate_key())
        wire = user.send({"seq": 1})
        monitor.receive(wire)
        with pytest.raises(SecurityViolation):
            monitor.receive(wire)

    def test_reorder_detected(self):
        user, monitor = channel_pair(generate_key())
        first = user.send({"n": 1})
        second = user.send({"n": 2})
        with pytest.raises(SecurityViolation):
            monitor.receive(second)
        monitor.receive(first)

    def test_direction_separation(self):
        """A record sent by the initiator cannot be reflected back."""
        user, monitor = channel_pair(generate_key())
        wire = user.send({"cmd": "x"})
        with pytest.raises(SecurityViolation):
            user.receive(wire)

    def test_wrong_key_rejected(self):
        user, _ = channel_pair(generate_key())
        _, other_monitor = channel_pair(generate_key())
        with pytest.raises(SecurityViolation):
            other_monitor.receive(user.send({"cmd": "x"}))

    def test_short_record_rejected(self):
        _, monitor = channel_pair(generate_key())
        with pytest.raises(SecurityViolation):
            monitor.receive(b"xx")

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            SecureChannel(generate_key(), role="middlebox")


class TestWindowedChannel:
    """The DTLS-style sliding-window mode the fleet links opt into."""

    def test_out_of_order_within_window_accepted(self):
        user, monitor = channel_pair(generate_key(), window=8)
        first = user.send({"n": 0})
        second = user.send({"n": 1})
        assert monitor.receive(second) == {"n": 1}
        assert monitor.receive(first) == {"n": 0}

    def test_gaps_from_drops_accepted(self):
        user, monitor = channel_pair(generate_key(), window=8)
        user.send({"n": 0})                      # lost in flight
        user.send({"n": 1})                      # lost in flight
        assert monitor.receive(user.send({"n": 2})) == {"n": 2}

    def test_replay_within_window_rejected(self):
        user, monitor = channel_pair(generate_key(), window=8)
        wire = user.send({"n": 0})
        monitor.receive(wire)
        monitor.receive(user.send({"n": 1}))
        with pytest.raises(SecurityViolation):
            monitor.receive(wire)

    def test_record_behind_window_rejected(self):
        user, monitor = channel_pair(generate_key(), window=4)
        stale = user.send({"n": 0})              # never delivered...
        for n in range(1, 8):
            monitor.receive(user.send({"n": n}))
        with pytest.raises(SecurityViolation):   # ...until too late
            monitor.receive(stale)

    def test_tampering_still_detected(self):
        user, monitor = channel_pair(generate_key(), window=8)
        wire = bytearray(user.send({"cmd": "x"}))
        wire[-1] ^= 1
        with pytest.raises(SecurityViolation):
            monitor.receive(bytes(wire))

    def test_failed_receive_does_not_advance_window(self):
        """A forged record must not burn the counter it claims."""
        user, monitor = channel_pair(generate_key(), window=8)
        wire = user.send({"n": 0})
        forged = bytearray(wire)
        forged[-1] ^= 1
        with pytest.raises(SecurityViolation):
            monitor.receive(bytes(forged))
        assert monitor.receive(wire) == {"n": 0}   # genuine one still OK

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            SecureChannel(generate_key(), role="initiator", window=-1)


class TestSequenceExhaustion:
    """Satellite fix: counter exhaustion is a SecurityViolation, not a
    bare OverflowError escaping from ``int.to_bytes``."""

    def test_send_beyond_sequence_space_refused(self):
        from repro.crypto import MAX_SEQUENCE
        user, _ = channel_pair(generate_key())
        user._send_seq = MAX_SEQUENCE + 1
        with pytest.raises(SecurityViolation):
            user.send({"cmd": "one too many"})

    def test_last_valid_sequence_still_sends(self):
        from repro.crypto import MAX_SEQUENCE
        user, _ = channel_pair(generate_key())
        user._send_seq = MAX_SEQUENCE
        assert user.send({"cmd": "final"})


class TestChannelHardening:
    """Replay/reorder/truncation and cross-link key isolation."""

    def test_truncated_record_rejected(self):
        user, monitor = channel_pair(generate_key())
        wire = user.send({"cmd": "export", "page": 3})
        for cut in (1, 8, len(wire) // 2, len(wire) - 1):
            with pytest.raises(SecurityViolation):
                monitor.receive(wire[:cut])

    def test_stale_sequence_rejected_after_progress(self):
        """An old record cannot be injected once the window moved on."""
        user, monitor = channel_pair(generate_key())
        stale = user.send({"n": 0})
        monitor.receive(stale)
        for n in range(1, 4):
            monitor.receive(user.send({"n": n}))
        with pytest.raises(SecurityViolation):
            monitor.receive(stale)

    def test_tampered_ciphertext_body_rejected(self):
        user, monitor = channel_pair(generate_key())
        wire = bytearray(user.send({"cmd": "clear_logs"}))
        wire[len(wire) // 2] ^= 0x80     # flip a bit mid-ciphertext
        with pytest.raises(SecurityViolation):
            monitor.receive(bytes(wire))

    def test_cross_link_key_reuse_rejected(self):
        """A record sealed for link A is garbage on link B, both ways."""
        key_a, key_b = generate_key(), generate_key()
        user_a, monitor_a = channel_pair(key_a)
        user_b, monitor_b = channel_pair(key_b)
        wire = user_a.send({"route": "replica0"})
        with pytest.raises(SecurityViolation):
            monitor_b.receive(wire)
        reply = monitor_b.send({"logs": []})
        with pytest.raises(SecurityViolation):
            user_a.receive(reply)
        # The honest endpoints still work after the cross-link attempts.
        assert monitor_a.receive(wire) == {"route": "replica0"}
        assert user_b.receive(reply) == {"logs": []}

    def test_derived_key_isolated_from_parent(self):
        """Fleet data channels never decrypt control-channel records."""
        from repro.cluster.attest import derive_data_key
        key = generate_key()
        user, monitor = channel_pair(key)
        data_user, data_monitor = channel_pair(derive_data_key(key))
        wire = user.send({"cmd": "control"})
        with pytest.raises(SecurityViolation):
            data_monitor.receive(wire)
        assert monitor.receive(wire) == {"cmd": "control"}
        assert data_monitor.receive(data_user.send({"op": "get"})) == \
            {"op": "get"}
