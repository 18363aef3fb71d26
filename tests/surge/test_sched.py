"""Event heap + discrete-event scheduler unit tests (veil-surge)."""

import pytest

from repro.errors import SimulationError
from repro.surge.sched import (ARRIVAL, COMPLETION, CONTROL,
                               DiscreteEventScheduler, Event, EventHeap)


class TestEventOrdering:
    def test_orders_by_timestamp_first(self):
        heap = EventHeap()
        heap.push(300, ARRIVAL, lambda: None)
        heap.push(100, ARRIVAL, lambda: None)
        heap.push(200, ARRIVAL, lambda: None)
        assert [heap.pop().ts for _ in range(3)] == [100, 200, 300]

    def test_rank_breaks_ties_at_one_instant(self):
        """Completions run before arrivals run before control events at
        the same timestamp -- a slot freed at t serves a request that
        arrives at t, and the autoscaler sees the settled instant."""
        heap = EventHeap()
        heap.push(50, CONTROL, lambda: None)
        heap.push(50, ARRIVAL, lambda: None)
        heap.push(50, COMPLETION, lambda: None)
        assert [heap.pop().rank for _ in range(3)] == \
            [COMPLETION, ARRIVAL, CONTROL]

    def test_seq_breaks_full_ties_in_push_order(self):
        heap = EventHeap()
        events = [heap.push(9, ARRIVAL, lambda: None) for _ in range(8)]
        popped = [heap.pop() for _ in range(8)]
        assert popped == events

    def test_comparison_never_reaches_the_callback(self):
        """Payloads are not orderable -- the (ts, rank, seq) key must
        fully decide, so duplicate keys never TypeError on compare."""
        heap = EventHeap()
        heap.push(1, ARRIVAL, object())     # not even callable
        heap.push(1, ARRIVAL, object())
        assert heap.pop().seq < heap.pop().seq

    def test_heap_orders_keys_not_events(self, monkeypatch):
        """Entries are ``(ts, rank, seq, event)`` tuples: ordering never
        calls an :class:`Event` comparison, and push/pop/peek hand back
        the very objects pushed."""
        def refuse(self, other):
            raise AssertionError("Event compared")
        monkeypatch.setattr(Event, "__lt__", refuse)
        heap = EventHeap()
        pushed = [heap.push(ts, rank, lambda: None)
                  for ts, rank in ((5, ARRIVAL), (5, COMPLETION), (1, CONTROL),
                                   (5, COMPLETION), (3, ARRIVAL))]
        assert heap.peek() is pushed[2]
        popped = [heap.pop() for _ in pushed]
        assert [pushed.index(event) for event in popped] == [2, 4, 1, 3, 0]
        assert all(isinstance(event, Event) for event in popped)

    def test_kind_names_the_rank(self):
        assert Event(ts=0, rank=COMPLETION, seq=0,
                     fn=lambda: None).kind == "completion"
        assert Event(ts=0, rank=99, seq=0, fn=lambda: None).kind == "99"

    def test_negative_timestamp_refused(self):
        with pytest.raises(SimulationError):
            EventHeap().push(-1, ARRIVAL, lambda: None)

    def test_pop_empty_refused(self):
        with pytest.raises(SimulationError):
            EventHeap().pop()

    def test_peek_does_not_remove(self):
        heap = EventHeap()
        heap.push(7, ARRIVAL, lambda: None)
        assert heap.peek().ts == 7
        assert len(heap) == 1
        assert EventHeap().peek() is None


class TestScheduler:
    def test_runs_callbacks_in_virtual_time_order(self):
        sched = DiscreteEventScheduler()
        seen = []
        sched.at(30, ARRIVAL, lambda: seen.append(("late", sched.now)))
        sched.at(10, ARRIVAL, lambda: seen.append(("early", sched.now)))
        assert sched.run() == 2
        assert seen == [("early", 10), ("late", 30)]

    def test_now_advances_and_doubles_as_a_clock(self):
        sched = DiscreteEventScheduler()
        sched.at(42, ARRIVAL, lambda: None)
        sched.run()
        assert sched.now == 42
        assert sched.total == 42        # ledger-protocol duck typing

    def test_callbacks_may_schedule_at_the_current_instant(self):
        sched = DiscreteEventScheduler()
        seen = []
        sched.at(5, ARRIVAL,
                 lambda: sched.at(5, COMPLETION, lambda: seen.append(1)))
        sched.run()
        assert seen == [1]

    def test_scheduling_into_the_past_refused(self):
        sched = DiscreteEventScheduler()
        sched.at(20, ARRIVAL, lambda: None)
        sched.run()
        with pytest.raises(SimulationError, match="past"):
            sched.at(10, ARRIVAL, lambda: None)

    def test_after_is_relative_and_refuses_negative_delay(self):
        sched = DiscreteEventScheduler(start=100)
        event = sched.after(25, CONTROL, lambda: None)
        assert event.ts == 125
        with pytest.raises(SimulationError):
            sched.after(-1, CONTROL, lambda: None)

    def test_runaway_loop_backstop(self):
        sched = DiscreteEventScheduler()

        def reschedule():
            sched.after(1, CONTROL, reschedule)

        sched.at(0, CONTROL, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            sched.run(max_events=50)

    def test_step_returns_false_when_drained(self):
        sched = DiscreteEventScheduler()
        assert sched.step() is False
