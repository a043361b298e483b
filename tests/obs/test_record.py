"""Trace format round-trips and robustness.

Mirrors the wire-codec test contract (tests/runtime/test_codec.py):
*identity* -- ``ReplayTrace.from_bytes(t.to_bytes()) == t`` for
hand-picked examples and hypothesis-generated traces -- and
*robustness* -- truncated, corrupted or hostile trace bytes raise
:class:`~repro.obs.record.TraceError`, never an arbitrary exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.gcs.messages import Data
from repro.obs.record import (
    EVENT_KINDS,
    TRACE_MAGIC,
    TRACE_VERSION,
    ReplayTrace,
    TraceError,
    TraceEvent,
    TraceRecorder,
)
from repro.runtime.codec import decode, encode_frame
from tests.runtime.wire_reference import reference_encode

V1 = ViewId(1, "p1")
VIEW = View(V1, frozenset({"p1", "p2", "p3"}))

EXAMPLE = ReplayTrace(
    ["p2", "p1", "p3"],
    VIEW,
    [
        TraceEvent(0.0, "p1", "start", (True,)),
        TraceEvent(0.1, "p1", "conn", (("p1", "p2", "p3"),)),
        TraceEvent(0.2, "p2", "recv", ("p1", Data(V1, ("w", "p1", 0), "p1", 1))),
        TraceEvent(0.3, "p1", "bcast", (("w", "p1", 0),)),
        TraceEvent(0.4, "*", "nemesis", ("partition [...]",)),
        TraceEvent(0.5, "p3", "timer", ("hb",)),
        TraceEvent(0.6, "p3", "stop"),
    ],
    dvs="nomajority",
    source="test",
)


class TestRoundTrip:
    def test_example_round_trip(self):
        again = ReplayTrace.from_bytes(EXAMPLE.to_bytes())
        assert again == EXAMPLE
        assert again.processes == ("p1", "p2", "p3")  # sorted on build
        assert again.dvs == "nomajority"
        assert again.source == "test"

    def test_save_load(self, tmp_path):
        path = tmp_path / "run.trace"
        EXAMPLE.save(path)
        assert ReplayTrace.load(path) == EXAMPLE

    def test_a_trace_written_in_wire_version_3_is_refused(self):
        """A trace is codec frames, read as the wire reads them: one an
        older build wrote, every scalar tagged under a version 3 stamp,
        is refused at its header, naming the version."""
        data, old = EXAMPLE.to_bytes(), b""
        while data:
            size = int.from_bytes(data[:4], "big")
            body = bytes([3]) + reference_encode(decode(data[4:4 + size]))[1:]
            old += len(body).to_bytes(4, "big") + body
            data = data[4 + size:]
        with pytest.raises(TraceError, match="wire version 3 "):
            ReplayTrace.from_bytes(old)

    def test_events_coerced_from_tuples(self):
        trace = ReplayTrace(["a"], VIEW, [(1.0, "a", "stop", ())])
        assert trace.events[0] == TraceEvent(1.0, "a", "stop")

    def test_describe_limits(self):
        text = EXAMPLE.describe(limit=2)
        assert "5 more" in text
        assert "nemesis" not in text


class TestShrinkSurface:
    """The subset/without/len/hash surface shrink_plan relies on."""

    def test_subset_keeps_order(self):
        sub = EXAMPLE.subset([4, 0, 2])
        assert [e.kind for e in sub] == ["start", "recv", "nemesis"]
        assert sub.initial_view == EXAMPLE.initial_view
        assert sub.dvs == EXAMPLE.dvs

    def test_without_drops(self):
        assert len(EXAMPLE.without(range(len(EXAMPLE)))) == 0
        assert EXAMPLE.without([]) == EXAMPLE

    def test_hashable_for_ddmin_cache(self):
        assert hash(EXAMPLE.subset([0, 1])) == hash(EXAMPLE.without(
            range(2, len(EXAMPLE))
        ))
        assert isinstance(hash(TraceEvent(0.0, "p", "stop")), int)


# -- Hypothesis: generated traces ---------------------------------------------

pids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1,
    max_size=8,
)
viewids = st.builds(
    ViewId, st.integers(min_value=0, max_value=2**31), pids
)
views = st.builds(
    View, viewids, st.frozensets(pids, min_size=1, max_size=5)
)

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)

events = st.builds(
    TraceEvent,
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    pids,
    st.sampled_from(EVENT_KINDS),
    st.tuples(payloads),
)

traces = st.builds(
    ReplayTrace,
    st.frozensets(pids, min_size=1, max_size=5),
    views,
    st.lists(events, max_size=20),
    dvs=st.sampled_from(["normal", "nomajority"]),
    source=st.sampled_from(["live", "sim"]),
)


@settings(max_examples=100, deadline=None)
@given(trace=traces)
def test_generated_trace_round_trip(trace):
    assert ReplayTrace.from_bytes(trace.to_bytes()) == trace


@settings(max_examples=100, deadline=None)
@given(trace=traces, cut=st.integers(min_value=1, max_value=200))
def test_truncated_trace_is_typed_error(trace, cut):
    data = trace.to_bytes()
    truncated = data[: len(data) - min(cut, len(data) - 1)]
    with pytest.raises(TraceError):
        ReplayTrace.from_bytes(truncated)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=80))
def test_garbage_bytes_never_crash(data):
    try:
        ReplayTrace.from_bytes(data)
    except TraceError:
        pass  # the only acceptable exception


# -- Hostile-but-well-framed input --------------------------------------------


def _frames(*values):
    return b"".join(encode_frame(v) for v in values)


def _header(count=1):
    """A well-formed v2 header promising ``count`` event frames."""
    return (TRACE_MAGIC, TRACE_VERSION, ("p1",), VIEW, "normal",
            "live", count)


HEADER = _header()


class TestHostileInput:
    def test_empty_input(self):
        with pytest.raises(TraceError, match="empty"):
            ReplayTrace.from_bytes(b"")

    def test_bad_magic(self):
        with pytest.raises(TraceError, match="not a dvs-trace"):
            ReplayTrace.from_bytes(_frames(
                ("not-a-trace", TRACE_VERSION, ("p1",), VIEW, "n", "l")
            ))

    def test_wire_message_is_not_a_header(self):
        with pytest.raises(TraceError, match="not a dvs-trace"):
            ReplayTrace.from_bytes(_frames(VIEW))

    def test_future_version(self):
        with pytest.raises(TraceError, match="version"):
            ReplayTrace.from_bytes(_frames(
                (TRACE_MAGIC, TRACE_VERSION + 1, ("p1",), VIEW, "n", "l")
            ))

    def test_malformed_process_list(self):
        with pytest.raises(TraceError, match="process list"):
            ReplayTrace.from_bytes(_frames(
                (TRACE_MAGIC, TRACE_VERSION, ("p1", 2), VIEW, "n", "l", 0)
            ))

    def test_initial_view_not_a_view(self):
        with pytest.raises(TraceError, match="View"):
            ReplayTrace.from_bytes(_frames(
                (TRACE_MAGIC, TRACE_VERSION, ("p1",), "view?", "n", "l", 0)
            ))

    def test_v1_header_reports_its_version(self):
        # Pre-count header shape: classified by version, not as garbage.
        with pytest.raises(TraceError, match="version 1"):
            ReplayTrace.from_bytes(_frames(
                (TRACE_MAGIC, 1, ("p1",), VIEW, "n", "l")
            ))

    def test_malformed_event_count(self):
        with pytest.raises(TraceError, match="event count"):
            ReplayTrace.from_bytes(_frames(_header(count=True)))

    def test_boundary_truncation_is_detected(self):
        # Cutting exactly at a frame boundary leaves no pending bytes;
        # only the header's event count can expose the loss.
        whole = _frames(_header(count=2), (0.0, "p1", "stop", ()),
                        (1.0, "p1", "stop", ()))
        boundary = len(_frames(_header(count=2), (0.0, "p1", "stop", ())))
        with pytest.raises(TraceError, match="truncated"):
            ReplayTrace.from_bytes(whole[:boundary])

    def test_trailing_frames_are_detected(self):
        with pytest.raises(TraceError, match="trailing"):
            ReplayTrace.from_bytes(_frames(
                _header(count=0), (0.0, "p1", "stop", ())
            ))

    def test_event_not_a_tuple(self):
        with pytest.raises(TraceError, match="event #0"):
            ReplayTrace.from_bytes(_frames(HEADER, "surprise"))

    def test_event_unknown_kind(self):
        with pytest.raises(TraceError, match="unknown kind"):
            ReplayTrace.from_bytes(_frames(
                HEADER, (0.0, "p1", "exec", ())
            ))

    def test_event_non_string_pid(self):
        with pytest.raises(TraceError, match="non-string pid"):
            ReplayTrace.from_bytes(_frames(HEADER, (0.0, 7, "stop", ())))

    def test_event_non_numeric_time(self):
        with pytest.raises(TraceError, match="non-numeric time"):
            ReplayTrace.from_bytes(_frames(
                HEADER, ("soon", "p1", "stop", ())
            ))

    def test_event_data_not_tuple(self):
        with pytest.raises(TraceError, match="data is not a tuple"):
            ReplayTrace.from_bytes(_frames(
                HEADER, (0.0, "p1", "stop", [1])
            ))

    def test_trace_event_rejects_unknown_kind_at_build(self):
        with pytest.raises(TraceError, match="unknown trace event kind"):
            TraceEvent(0.0, "p1", "banana")


class TestTraceRecorder:
    def test_record_preserves_order_and_data(self):
        rec = TraceRecorder()
        rec.record(0.0, "a", "start", True)
        rec.record(0.5, "a", "recv", "b", "msg")
        trace = rec.trace(["a", "b"], VIEW)
        assert [e.as_tuple() for e in trace] == [
            (0.0, "a", "start", (True,)),
            (0.5, "a", "recv", ("b", "msg")),
        ]

    def test_on_action_captures_only_bcasts(self):
        from repro.ioa.action import Action

        rec = TraceRecorder()
        rec.on_action(1.0, Action("bcast", (("w", "a", 0), "a")))
        rec.on_action(1.1, Action("brcv", (("w", "a", 0), "a", "b")))
        assert len(rec.events) == 1
        assert rec.events[0].kind == "bcast"
        assert rec.events[0].pid == "a"
        assert rec.events[0].data == (("w", "a", 0),)
