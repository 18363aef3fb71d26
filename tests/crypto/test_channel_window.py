"""The secure channel's sliding replay window against a reference model.

:class:`WindowModel` states what the window promises in the plainest
form: it keeps the set of authenticated counters accepted so far and
their maximum.  A record is accepted exactly when it authenticates, its
counter is not in the set, and the counter is less than ``window``
behind the maximum.  It takes nothing from ``SecureChannel`` but the
window size.

:class:`WindowVsReference` drives a windowed channel pair over an
adversarial transport and compares every accept or refuse with the
model.  The sender sends; the transport drops (the sender's counter
skips ahead), reorders and duplicates (it delivers any record sent so
far, again if it likes) and corrupts (it flips one bit of one).  The op
mix is biased toward the counters where a window goes wrong: the newest
record, and the records one short of, at and one past the window's
edge.  After every delivery the receiver's highest counter and its
bitmask of seen counters must be the ones the model's set implies.
Some runs start just below :data:`MAX_SEQUENCE`, and the sender may
leap there, so it runs out of counters mid-run.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.cluster.attest import CHANNEL_WINDOW
from repro.crypto import MAX_SEQUENCE, SecureChannel, channel_pair
from repro.errors import SecurityViolation

KEY = bytes(range(32))
WINDOW = CHANNEL_WINDOW


class WindowModel:
    """The replay window as a set of accepted counters and their max."""

    def __init__(self, window: int):
        self.window = window
        self.accepted: set[int] = set()
        self.highest = -1

    def receive(self, counter: int, authentic: bool) -> bool:
        """Whether the record is accepted (and if so, remember it)."""
        if (not authentic or counter in self.accepted or
                self.highest - counter >= self.window):
            return False
        self.accepted.add(counter)
        self.highest = max(self.highest, counter)
        return True

    def seen_mask(self) -> int:
        """Bit ``i`` set: counter ``highest - i`` accepted, ``i < window``."""
        return sum(1 << (self.highest - counter)
                   for counter in self.accepted
                   if self.highest - counter < self.window)


def payload_of(counter: int) -> dict:
    return {"n": counter % 1000}


def record_at(counter: int) -> bytes:
    """The record the sender seals at ``counter`` (sealing is
    deterministic, so the transport can hold any of them back)."""
    sealer = SecureChannel(KEY, role="initiator", window=WINDOW)
    sealer._send_seq = counter
    return sealer.send(payload_of(counter))


class WindowVsReference(RuleBasedStateMachine):
    """One windowed channel pair and the model, driven in lockstep."""

    def __init__(self):
        super().__init__()
        self.sender, self.receiver = channel_pair(KEY, window=WINDOW)
        self.model = WindowModel(WINDOW)
        self.first = 0

    @initialize(start=st.sampled_from([0, MAX_SEQUENCE - 3 * WINDOW,
                                       MAX_SEQUENCE - 2]))
    def start(self, start):
        self.sender._send_seq = self.first = start

    @property
    def next_counter(self) -> int:
        return self.sender._send_seq

    # -- the sender ----------------------------------------------------------

    @rule(count=st.integers(min_value=1, max_value=3),
          in_order=st.booleans())
    def send(self, count, in_order):
        """The sender seals the next records; the transport delivers
        them at once, in order, or holds them back."""
        for _ in range(count):
            counter = self.next_counter
            if counter > MAX_SEQUENCE:
                try:
                    self.sender.send(payload_of(counter))
                except SecurityViolation:
                    return
                raise AssertionError("sent past the sequence space")
            wire = self.sender.send(payload_of(counter))
            assert wire == record_at(counter)
            if in_order:
                self.deliver(wire, counter, True)

    @rule(gap=st.sampled_from([1, 2, WINDOW // 2, WINDOW - 2, WINDOW - 1,
                               WINDOW, WINDOW + 1, 3 * WINDOW]))
    def drop(self, gap):
        """The next ``gap`` records are lost."""
        self.sender._send_seq = min(self.next_counter + gap,
                                    MAX_SEQUENCE + 1)

    @rule(before_end=st.integers(min_value=0, max_value=3))
    def leap(self, before_end):
        """The sender's counter jumps to just below the end, and its
        next record arrives."""
        self.sender._send_seq = max(self.next_counter,
                                    MAX_SEQUENCE - before_end)
        self.send(1, True)

    # -- the transport ---------------------------------------------------------

    def pick(self, data) -> int:
        """A counter already sent, biased toward the window's edges."""
        newest = min(self.next_counter, MAX_SEQUENCE + 1) - 1
        highest = self.model.highest
        biased = [newest] + [highest - behind for behind in
                             (0, WINDOW - 2, WINDOW - 1, WINDOW,
                              WINDOW + 1)]
        candidates = sorted({counter for counter in biased
                             if self.first <= counter <= newest})
        return data.draw(st.one_of(
            st.sampled_from(candidates),
            st.integers(min_value=self.first, max_value=newest)))

    def deliver(self, wire: bytes, counter: int, authentic: bool) -> None:
        expected = self.model.receive(counter, authentic)
        try:
            got = self.receiver.receive(wire)
        except SecurityViolation:
            accepted = False
        else:
            accepted = True
            assert got == payload_of(counter)
        assert accepted == expected, (counter, authentic)
        assert self.receiver._recv_max == self.model.highest
        assert self.receiver._recv_seen == self.model.seen_mask()

    @precondition(lambda self: self.next_counter > self.first)
    @rule(data=st.data())
    def deliver_genuine(self, data):
        """A sent record: in order, reordered, or a duplicate."""
        counter = self.pick(data)
        self.deliver(record_at(counter), counter, True)

    @precondition(lambda self: self.next_counter > self.first)
    @rule(data=st.data(), bit=st.integers(min_value=0, max_value=7))
    def deliver_corrupted(self, data, bit):
        """A sent record with one bit flipped, in the counter or after."""
        counter = self.pick(data)
        wire = bytearray(record_at(counter))
        wire[data.draw(st.integers(min_value=0,
                                   max_value=len(wire) - 1))] ^= 1 << bit
        self.deliver(bytes(wire), counter, False)


TestWindowMatchesReference = WindowVsReference.TestCase
TestWindowMatchesReference.settings = settings(
    max_examples=150, stateful_step_count=40, derandomize=True,
    database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
