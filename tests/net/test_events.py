"""Unit tests for the discrete-event queue."""

import pytest

from repro.net.events import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(3, lambda: fired.append("c"))
        q.schedule(1, lambda: fired.append("a"))
        q.schedule(2, lambda: fired.append("b"))
        q.run_until(10)
        assert fired == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        fired = []
        for tag in "abc":
            q.schedule(1, lambda t=tag: fired.append(t))
        q.run_until(1)
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1, lambda: None)

    def test_now_advances(self):
        q = EventQueue()
        q.schedule(5, lambda: None)
        q.run_until(7)
        assert q.now == 7

    def test_events_can_schedule_events(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append(1)
            q.schedule(1, lambda: fired.append(2))

        q.schedule(1, first)
        q.run_until(5)
        assert fired == [1, 2]


class TestQuiescence:
    def test_run_to_quiescence_counts(self):
        q = EventQueue()
        for _ in range(4):
            q.schedule(1, lambda: None)
        status = q.run_to_quiescence()
        assert status.fired == 4
        assert status.quiescent
        assert status.reason == "quiescent"
        assert bool(status)

    def test_respects_max_time(self):
        q = EventQueue()
        fired = []
        q.schedule(1, lambda: fired.append(1))
        q.schedule(100, lambda: fired.append(2))
        status = q.run_to_quiescence(max_time=10)
        assert fired == [1]
        # The far-future event is still queued.
        assert len(q) == 1
        assert not status.quiescent
        assert status.reason == "max_time"

    def test_respects_max_events(self):
        q = EventQueue()

        def reschedule():
            q.schedule(1, reschedule)

        q.schedule(1, reschedule)
        status = q.run_to_quiescence(max_events=50)
        assert status.fired == 50
        assert not status.quiescent
        assert status.reason == "max_events"
        assert not bool(status)

    def test_exact_budget_still_quiescent(self):
        """Draining on the last allowed event is quiescence, not truncation."""
        q = EventQueue()
        for _ in range(5):
            q.schedule(1, lambda: None)
        status = q.run_to_quiescence(max_events=5)
        assert status.fired == 5
        assert status.quiescent
