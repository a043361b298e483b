"""Unit tests for the action log and the stack's wire messages."""

import pytest

from repro.core import make_view
from repro.core.viewids import ViewId
from repro.gcs.messages import (
    Ack,
    Collect,
    Data,
    Install,
    Ordered,
    SafeNote,
    StateReply,
)
from repro.gcs.recorder import ActionLog


class TestActionLog:
    def test_records_in_order(self):
        log = ActionLog()
        log.record("bcast", "a", "p1")
        log.record("brcv", "a", "p1", "p2")
        assert [a.name for a in log] == ["bcast", "brcv"]
        assert len(log) == 2

    def test_clock_timestamps(self):
        now = {"t": 0.0}
        log = ActionLog(clock=lambda: now["t"])
        log.record("bcast", "a", "p1")
        now["t"] = 5.0
        log.record("brcv", "a", "p1", "p2")
        assert [t for t, _ in log.timed_actions()] == [0.0, 5.0]

    def test_no_clock_gives_none(self):
        log = ActionLog()
        log.record("x")
        assert log.times == [None]

    def test_clear(self):
        log = ActionLog()
        log.record("x")
        log.clear()
        assert len(log) == 0
        assert log.times == []


class TestWireMessages:
    def test_messages_hashable(self):
        vid = ViewId(1, "a")
        view = make_view(vid, {"a", "b"})
        messages = [
            Collect(("a", 1), frozenset({"a", "b"})),
            StateReply(("a", 1), 3),
            Install(("a", 1), view),
            Data(vid, "m", "a", 1),
            Ordered(vid, 1, "m", "a"),
            Ack(vid, 1),
            SafeNote(vid, 1),
        ]
        assert len(set(messages)) == len(messages)

    def test_equality_is_structural(self):
        vid = ViewId(2, "b")
        assert Data(vid, "m", "a", 1) == Data(vid, "m", "a", 1)
        assert Ack(vid, 1) != Ack(vid, 2)
