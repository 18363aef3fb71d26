"""The discrete-event scheduler behind the open-loop surge harness.

Everything before veil-surge ran closed-loop: one request at a time,
with "time" read off summed cycle ledgers after the fact.  Open-loop
traffic needs the opposite arrow -- *time drives work*: arrivals land
when the arrival plan says so, service completions land when queued
work drains, and thousands of requests overlap in flight between their
arrival and completion instants.  This module is that clock: a classic
discrete-event simulator over an event heap.

Determinism contract (pinned by ``tests/surge/test_determinism.py``):
the pop order of the heap is a pure function of the pushed events.
Every event is keyed ``(ts, rank, seq)``:

``ts``
    Virtual time in cycles (the same unit every ledger charges).
``rank``
    Tie-break *class* for simultaneous events: completions run before
    arrivals run before control events at the same instant, so a slot
    freed at ``t`` can serve a request arriving at ``t`` and the
    autoscaler sees the settled state.
``seq``
    A monotone push counter: equal ``(ts, rank)`` events pop in the
    order they were scheduled.  No comparison ever reaches the payload,
    so callbacks need no ordering of their own.

The scheduler doubles as a clock source for the fleet observers:
``.total`` mirrors ``now`` so anything that accepts a ledger-like clock
(:meth:`~repro.scope.collector.FleetScope.attach_clock`) can be clocked
off event time instead of ledger time.
"""

from __future__ import annotations

import heapq
import typing
from dataclasses import dataclass, field

from ..errors import SimulationError

#: Event ranks, in tie-break order at one instant.  Completions free
#: capacity before new arrivals claim it; control (autoscale) decisions
#: observe the settled instant.
COMPLETION = 0
ARRIVAL = 1
CONTROL = 2

_RANK_NAMES = {COMPLETION: "completion", ARRIVAL: "arrival",
               CONTROL: "control"}


@dataclass(frozen=True)
class Event:
    """One scheduled event.  :class:`EventHeap` orders it by its
    ``(ts, rank, seq)`` key; equality ignores ``fn`` too."""

    ts: int
    rank: int
    seq: int
    fn: typing.Callable = field(compare=False)

    @property
    def kind(self) -> str:
        """Human-readable rank name (for traces and errors)."""
        return _RANK_NAMES.get(self.rank, str(self.rank))


class EventHeap:
    """A deterministic min-heap of :class:`Event`\\ s.

    Thin and explicit on purpose: the only state is the heap list and
    the push counter, so two runs that push the same events pop the
    same order -- there is nothing else for divergence to hide in.
    """

    def __init__(self):
        #: ``(ts, rank, seq, event)`` entries: tuples compare in C, and
        #: ``seq`` is unique, so a comparison never reaches the event.
        self._heap: list[tuple[int, int, int, Event]] = []
        self._pushed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, ts: int, rank: int, fn: typing.Callable) -> Event:
        """Schedule ``fn`` at ``(ts, rank)``; returns the event."""
        if ts < 0:
            raise SimulationError(f"event timestamp {ts} is negative")
        seq = self._pushed
        event = Event(ts=ts, rank=rank, seq=seq, fn=fn)
        self._pushed += 1
        heapq.heappush(self._heap, (ts, rank, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event heap")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event | None:
        """The earliest event without removing it (None when empty)."""
        return self._heap[0][3] if self._heap else None


class DiscreteEventScheduler:
    """Run callbacks in virtual-time order off an :class:`EventHeap`.

    ``now`` only moves forward: events may be scheduled at the current
    instant (same-``ts`` work runs in rank/seq order) but never in the
    past.  Exposes ``.total`` so observers that clock off "anything
    with a total" (tracer ledgers, :class:`FleetClock`) can clock off
    event time.
    """

    def __init__(self, start: int = 0):
        self.heap = EventHeap()
        self.now = start
        self.processed = 0

    @property
    def total(self) -> int:
        """Ledger-protocol alias for ``now`` (clock duck-typing)."""
        return self.now

    def at(self, ts: int, rank: int, fn: typing.Callable) -> Event:
        """Schedule ``fn`` at absolute virtual time ``ts``."""
        if ts < self.now:
            raise SimulationError(
                f"cannot schedule into the past ({ts} < now {self.now})")
        return self.heap.push(ts, rank, fn)

    def after(self, delay: int, rank: int,
              fn: typing.Callable) -> Event:
        """Schedule ``fn`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative event delay {delay}")
        return self.heap.push(self.now + delay, rank, fn)

    def step(self) -> bool:
        """Run the earliest event; False when the heap is empty."""
        if not len(self.heap):
            return False
        event = self.heap.pop()
        self.now = event.ts
        self.processed += 1
        event.fn()
        return True

    def run(self, max_events: int = 10_000_000) -> int:
        """Drain the heap; returns how many events ran.

        ``max_events`` is a runaway-loop backstop (an autoscaler that
        reschedules itself forever), far above any real surge plan.
        """
        ran = 0
        while self.step():
            ran += 1
            if ran >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {ran} events "
                    "(self-rescheduling loop?)")
        return ran
