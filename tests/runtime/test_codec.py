"""Wire codec round-trips: every message type, every byte boundary.

Two families of guarantees:

1. *identity* -- ``decode(encode(v)) == v`` for every encodable value,
   checked by hand-picked examples covering every registered wire type
   and by hypothesis over randomly generated values and messages;
2. *robustness* -- truncated, corrupted or hostile input raises
   :class:`~repro.runtime.codec.CodecError` (a typed, catchable error),
   never an arbitrary exception and never a crash of the reader loop.
"""

import dataclasses
import json
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import InfoMsg, RegisteredMsg
from repro.core.viewids import ViewId
from repro.core.views import View
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.messages import (
    Ack,
    Collect,
    Data,
    Install,
    Ordered,
    OrderedRun,
    SafeNote,
    StateReply,
)
from repro.cb.messages import CbCast
from repro.runtime.codec import (
    MAX_FRAME,
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    Heartbeat,
    Hello,
    decode,
    encode,
    encode_frame,
    validate_message,
)
from repro.to.summaries import Label, Summary

V1 = ViewId(1, "p1")
V2 = ViewId(2, "p2")
VIEW = View(V1, frozenset({"p1", "p2", "p3"}))
LABEL = Label(V1, 3, "p2")

#: At least one instance of every registered wire type, with payload
#: fields exercising nesting (tuples in frozensets, None, bytes...).
EXAMPLES = [
    V1,
    VIEW,
    InfoMsg(VIEW, frozenset({View(V2, frozenset({"p1"}))})),
    RegisteredMsg(),
    AckMsg(7),
    Collect(("p1", 4), frozenset({"p1", "p2"})),
    StateReply(("p1", 4), 9),
    Install(("p1", 4), VIEW),
    Data(V1, ("put", "k", "v"), "p3", 1),
    Ordered(V1, 12, ("del", "k"), "p2"),
    OrderedRun(V1, 13, ((LABEL, "p2"), (frozenset({1}), "p3"))),
    Ack(V1, 12),
    SafeNote(V2, 5),
    Summary(
        frozenset({(LABEL, ("put", "a", 1)), (Label(V2, 0, "p1"), None)}),
        (LABEL, Label(V2, 0, "p1")),
        2,
        V2,
    ),
    CbCast(V2, (("p1", 2), ("p2", 5)), ("typing", True), "p2"),
    Hello("p9"),
    Heartbeat(),
]


def test_examples_cover_every_wire_type():
    covered = {type(e) for e in EXAMPLES} | {Label}  # Label rides Summary
    assert covered >= set(WIRE_TYPES)


@pytest.mark.parametrize(
    "value", EXAMPLES, ids=lambda v: type(v).__name__
)
def test_example_round_trip(value):
    assert decode(encode(value)) == value
    assert FrameDecoder().feed(encode_frame(value)) == [value]


def test_encoding_is_deterministic():
    one = Summary(
        frozenset({(Label(V1, i, "p1"), i) for i in range(6)}),
        (), 0, V1,
    )
    assert encode(one) == encode(one)
    # The same set built in a different insertion order encodes the same.
    other = Summary(
        frozenset({(Label(V1, i, "p1"), i) for i in reversed(range(6))}),
        (), 0, V1,
    )
    assert encode(one) == encode(other)


# -- Hypothesis: arbitrary values ---------------------------------------------

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
labels = st.builds(
    Label, viewids, st.integers(min_value=0, max_value=1000), pids
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=8)), max_size=4
        ),
        st.dictionaries(
            st.one_of(st.integers(), st.text(max_size=8)),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)

messages = st.one_of(
    viewids,
    views,
    st.builds(InfoMsg, views, st.frozensets(views, max_size=3)),
    st.builds(RegisteredMsg),
    st.builds(AckMsg, st.integers(min_value=0)),
    st.builds(
        Collect,
        st.tuples(pids, st.integers(min_value=0)),
        st.frozensets(pids, min_size=1, max_size=5),
    ),
    st.builds(
        StateReply,
        st.tuples(pids, st.integers(min_value=0)),
        st.integers(),
    ),
    st.builds(
        Install, st.tuples(pids, st.integers(min_value=0)), views
    ),
    st.builds(Data, viewids, payloads, pids, st.integers(min_value=1)),
    st.builds(
        Ordered, viewids, st.integers(min_value=0), payloads, pids
    ),
    st.builds(
        OrderedRun, viewids, st.integers(min_value=0),
        st.lists(st.tuples(payloads, pids), min_size=1, max_size=4)
        .map(tuple),
    ),
    st.builds(Ack, viewids, st.integers(min_value=0)),
    st.builds(SafeNote, viewids, st.integers(min_value=0)),
    st.builds(
        Summary,
        st.frozensets(
            st.tuples(
                labels,
                st.one_of(
                    st.integers(), st.text(max_size=8),
                    st.tuples(st.text(max_size=4), st.integers()),
                ),
            ),
            max_size=4,
        ),
        st.lists(labels, max_size=4).map(tuple),
        st.integers(min_value=0),
        viewids,
    ),
    st.builds(Hello, pids),
    st.builds(Heartbeat, st.none() | viewids),
)


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(payloads, messages))
def test_round_trip_identity(value):
    assert decode(encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(payloads, messages), max_size=6),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_frame_decoder_reassembles_any_chunking(values, chunk):
    stream = b"".join(encode_frame(v) for v in values)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[i:i + chunk]))
    assert out == values
    assert decoder.pending == 0


# -- Robustness ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64))
def test_garbage_body_never_crashes(data):
    try:
        decode(data)
    except CodecError:
        pass  # the only acceptable exception


@settings(max_examples=100, deadline=None)
@given(value=messages, cut=st.integers(min_value=0, max_value=200))
def test_truncated_frame_waits_for_more_bytes(value, cut):
    frame = encode_frame(value)
    truncated = frame[: min(cut, len(frame) - 1)]
    decoder = FrameDecoder()
    assert decoder.feed(truncated) == []
    assert decoder.pending == len(truncated)


@settings(max_examples=100, deadline=None)
@given(
    value=messages,
    position=st.integers(min_value=0, max_value=10**6),
    byte=st.integers(min_value=0, max_value=255),
)
def test_corrupted_frame_never_crashes(value, position, byte):
    frame = bytearray(encode_frame(value))
    position %= len(frame)
    frame[position] = byte
    decoder = FrameDecoder()
    try:
        result = decoder.feed(bytes(frame))
    except CodecError:
        return
    # A lucky corruption may still decode -- but only to a real value,
    # and never to more than the one frame that was sent.
    assert len(result) <= 1


def test_wrong_version_rejected():
    body = encode(Heartbeat())
    flipped = bytes([WIRE_VERSION + 1]) + body[1:]
    with pytest.raises(CodecError, match="wire version"):
        decode(flipped)


def test_oversized_length_prefix_rejected_before_buffering():
    header = struct.pack(">I", MAX_FRAME + 1)
    with pytest.raises(CodecError, match="exceeds"):
        FrameDecoder().feed(header)
    with pytest.raises(CodecError, match="exceeds"):
        FrameDecoder().feed(header + b"x")


def test_unknown_dataclass_rejected():
    body = bytes([WIRE_VERSION]) + json.dumps(
        ["@", "OsCommand", ["rm -rf /"]]
    ).encode()
    with pytest.raises(CodecError, match="unknown type"):
        decode(body)
    # The error names the reference, never renders the (large) node.
    huge = ["@", "OsCommand", ["x" * 1000] * 1000]
    for ref, named in ((huge, "'OsCommand'"), (["@", huge], "list")):
        with pytest.raises(CodecError) as err:
            decode(bytes([WIRE_VERSION]) + json.dumps(ref).encode())
        assert str(err.value) == "malformed body: unknown type " + named


def test_unencodable_values_rejected():
    with pytest.raises(CodecError):
        encode(object())
    with pytest.raises(CodecError):
        encode(float("nan"))
    with pytest.raises(CodecError):
        encode(lambda: None)


def test_unregistered_frozen_dataclass_rejected_on_encode():
    """A message type missing from WIRE_TYPES cannot reach the wire:
    the registry is closed on the encode side too."""

    @dataclasses.dataclass(frozen=True)
    class Stowaway:
        payload: str

    with pytest.raises(CodecError, match="unencodable"):
        encode(Stowaway("x"))


def test_deep_nesting_is_typed_error():
    bomb = bytes([WIRE_VERSION]) + (
        b'["t",[' * 2000 + b'["z"]' + b"]]" * 2000
    )
    with pytest.raises(CodecError):
        decode(bomb)
    value = None
    for _ in range(100):
        value = (value,)
    assert decode(encode(value)) == value  # deep is fine, bottomless is not
    for _ in range(5000):
        value = [value]
    with pytest.raises(CodecError, match="unencodable"):
        encode(value)


def body(text):
    return bytes([WIRE_VERSION]) + text.encode()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_floats_are_refused_on_decode_too(literal):
    """``encode`` never wrote them; ``decode`` used to read them, and a
    payload that decodes but cannot be re-encoded wedges the view whose
    sequencer relays it (tests/runtime/test_bugfixes.py, #9)."""
    for text in (
        '{0}',
        '["t",["put",{0}]]',
        '["@","Data",[["@","ViewId",[1,"n1"]],'
        '["d",[["k",["l",[{0}]]]]],"n2",1]]',
    ):
        with pytest.raises(CodecError):
            decode(body(text.format(literal)))


def test_a_huge_int_in_a_float_slot_is_a_typed_error():
    """A float literal past a double's range (``1e400``, or 400 digits
    before the point) parses to an infinity and is refused as one, by
    ``decode`` and by ``FrameDecoder.feed`` alike -- a ``CodecError``,
    never an ``OverflowError`` escaping the listener's ``except
    CodecError``.  A 400-digit int is an int, and reads as one."""
    for huge in ("1e400", "1" + "0" * 400 + ".0"):
        text = '["t",["put",{0}]]'.format(huge)
        with pytest.raises(CodecError, match="non-finite"):
            decode(body(text))
        frame = struct.pack(">I", len(text) + 1) + body(text)
        with pytest.raises(CodecError, match="non-finite"):
            FrameDecoder().feed(frame)
    assert decode(body(str(10 ** 400))) == 10 ** 400
    assert decode(body("7.0")) == 7.0


@pytest.mark.parametrize("text", [
    '["@","ViewId",[1,["l",[]]]]',
    '["@","ViewId",[true,"n1"]]',
    '["@","ViewId",[1.0,"n1"]]',
    '["@","Ack",[["@","Label",[["@","ViewId",[1,"n1"]],3,"n2"]],3]]',
    '["@","View",[["@","ViewId",[1,"n1"]],["l",["n1"]]]]',
    '["@","Collect",[["l",["n1",1]],["fz",["n1"]]]]',
    # A string sequence number in a label, inside a set in a payload.
    '["@","Data",[["@","ViewId",[1,"n1"]],["fz",[["@","Label",'
    '[["@","ViewId",[1,"n1"]],"3","n2"]]]],"n2",1]]',
])
def test_pinned_field_types_hold_at_every_depth(text):
    """Only the top-level message used to be checked (by the node, after
    decoding); now nothing registered is ever rebuilt out of type."""
    with pytest.raises(CodecError, match="pinned type"):
        decode(body(text))


ENVELOPE = ("n1", Ordered(
    ViewId(1, "n1"), 12,
    (Label(ViewId(1, "n1"), 3, "n2"), ("put", "key-17", "0" * 32)), "n2",
))

#: The sequencer's run of six such slots.
RUN_ENVELOPE = ("n1", OrderedRun(ViewId(1, "n1"), 12, tuple(
    ((Label(ViewId(1, "n1"), seq, "n2"), ("put", "key-17", "0" * 32)), "n2")
    for seq in range(3, 9)
)))


def _profiled_round_trip(value):
    """``encode_frame`` plus ``FrameDecoder().feed`` of ``value`` under
    ``sys.setprofile``: the frame and its ``call`` + ``c_call`` events."""
    events = []

    def profile(frame, event, arg):
        if event in ("call", "c_call") and arg is not sys.setprofile:
            events.append(event)

    decoder = FrameDecoder()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        frame = encode_frame(value)
        fed = decoder.feed(frame)
    finally:
        sys.setprofile(previous)
    assert fed == [value]
    return frame, len(events)


def test_work_per_frame_is_a_count():
    """The 180-byte envelope ``("n1", Ordered(ViewId(1, "n1"), 12,
    (Label(ViewId(1, "n1"), 3, "n2"), ("put", "key-17", "0" * 32)),
    "n2"))``, encoded and decoded, in profile events.

    The generic walks ``wire_reference.py`` keeps made **429** (encode
    32 + 120, decode 119 + 158: 100 ``isinstance`` and a throw-away tree
    on the way out; 84 ``_need()`` calls and 27 eagerly formatted error
    texts on the way in).  The compiled codec made **130** of the 252-byte version 3
    frame on CPython 3.11; version 4 makes **83** (encode 36, decode
    47) of 180 bytes: no emitter call per scalar out, no handler call
    per scalar in, and no second pass over a rebuilt message.  Counts
    repeat exactly where timings on a shared host do not; the budget
    leaves room for interpreter versions (3.12 inlines comprehensions,
    older ones count a few more) and none for a tag per scalar, an
    eager ``format`` or a second ``dumps`` creeping back.
    """
    frame, events = _profiled_round_trip(ENVELOPE)
    assert len(frame) == 180
    assert 0 < events <= 150, events


def test_work_per_run_frame_is_a_count():
    """A run of six slots: version 3 made 508 events of 1,141 bytes,
    version 4 makes 315 of 829 (CPython 3.11)."""
    frame, events = _profiled_round_trip(RUN_ENVELOPE)
    assert len(frame) == 829
    assert 0 < events <= 450, events


@pytest.mark.parametrize("entries", [
    (),
    (("m", "p1"), "p2"),
    (("m", "p1"), ("m",)),
    (("m", "p1", "extra"),),
    (("m", 7),),
    (["m", "p1"],),
], ids=["empty", "bare", "short", "long", "int-sender", "list-entry"])
def test_a_forged_run_encodes_decodes_and_fails_validation(entries):
    """The codec checks a run's entries by outer type only (any tuple
    encodes and decodes); the receive gate refuses what the sequencer
    never sends and the members' handler could not unpack."""
    run = OrderedRun(V1, 1, entries)
    assert decode(encode(run)) == run
    assert not validate_message(run)
    assert validate_message(OrderedRun(V1, 1, (("m", "p1"), (None, "p2"))))


def test_trailing_byte_stays_pending():
    frame = encode_frame(Heartbeat())
    decoder = FrameDecoder()
    assert decoder.feed(frame + b"\x00") == [Heartbeat()]
    assert decoder.pending == 1


def test_pinned_schema_matches_the_dataclasses():
    """The WIRE_SCHEMA pin agrees with the live dataclass
    definitions."""
    from repro.runtime.codec import WIRE_SCHEMA, schema_drift

    assert schema_drift() == []
    assert set(WIRE_SCHEMA) == {cls.__name__ for cls in WIRE_TYPES}


def test_schema_drift_reports_a_renamed_field_and_a_stale_pin(monkeypatch):
    """The guard has teeth: a pin that disagrees with a live dataclass
    (what a field rename looks like) and a pin with no registered type
    are both reported."""
    from repro.runtime import codec

    pinned = dict(codec.WIRE_SCHEMA)
    pinned["ViewId"] = (("era", "int"),) + tuple(pinned["ViewId"][1:])
    pinned["Ghost"] = ()
    monkeypatch.setattr(codec, "WIRE_SCHEMA", pinned)
    drift = codec.schema_drift()
    assert any(d.startswith("ViewId: declared fields") for d in drift)
    assert "Ghost: pinned in WIRE_SCHEMA but not in WIRE_TYPES" in drift
    assert len(drift) == 2
