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
import threading

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
from repro.runtime import codec
from repro.runtime.codec import (
    MAX_FRAME,
    RAW_MIN,
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

#: A string that travels in the tail, unless it is in a set or a dict.
long_texts = st.text(min_size=1, max_size=3).map(
    lambda unit: unit * (RAW_MIN // len(unit) + 1)
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
    long_texts,
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=8), long_texts),
            max_size=4,
        ),
        st.dictionaries(
            st.one_of(st.integers(), st.text(max_size=8), long_texts),
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
    with pytest.raises(CodecError, match="declared type"):
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
    per scalar in, and no second pass over a rebuilt message.  Version
    7 makes **107** (90 at version 6): each of the eight strings costs
    its emitter's call and its length test.  One view id per view
    makes **101**, or 95 when the decoder built this envelope's view id
    last: the second mention of the view is answered from its memo, each
    class node is dispatched once, and the body is read in one pass.
    Counts repeat exactly where timings on a shared host do not; the
    budget leaves room for interpreter versions (3.12 inlines
    comprehensions, older ones count a few more) and none for a tag per
    scalar, an eager ``format`` or a second ``dumps`` creeping back.
    """
    frame, events = _profiled_round_trip(ENVELOPE)
    assert len(frame) == 180
    assert 0 < events <= 120, events


def test_work_per_run_frame_is_a_count():
    """A run of six slots: version 3 made 508 events of 1,141 bytes,
    version 4 315 of 829, version 6 354 and version 7 431 (CPython
    3.9-3.11; the length test of 38 strings); one view id per view
    makes 399, or 393 with its view id the decoder's last (CPython
    3.11)."""
    frame, events = _profiled_round_trip(RUN_ENVELOPE)
    assert len(frame) == 829
    assert 0 < events <= 420, events


#: The envelope above with an 8 KiB value: ``to_large_n3``'s frame.
LARGE_VALUE = "0" * 8192
LARGE_ENVELOPE = ("n1", Ordered(
    ViewId(1, "n1"), 12,
    (Label(ViewId(1, "n1"), 3, "n2"), ("put", "key-17", LARGE_VALUE)), "n2",
))


def test_a_long_value_is_never_escaped(monkeypatch):
    """The 8 KiB value goes to the tail verbatim: of the envelope's
    eight strings, exactly the seven short ones are escaped, so the
    value's bytes are not, and the frame is the small envelope's with
    the 34-byte quoted value swapped for the 10-byte placeholder
    ``{"s":8192}``, the separator and the 8,192 bytes.  Encoded and
    decoded, it costs 110 profile events (CPython 3.11) where the small
    envelope costs 101: the tail's split, hook and read, whatever its
    length."""
    escaped = []

    def escape(text):
        escaped.append(text)
        return json.encoder.encode_basestring_ascii(text)

    with monkeypatch.context() as patch:
        patch.setattr(codec, "_escape", escape)
        frame = encode_frame(LARGE_ENVELOPE)
    assert escaped == ["n1", "n1", "n1", "n2", "put", "key-17", "n2"]
    assert len(frame) == 180 - 34 + 10 + 1 + 8192
    assert frame.endswith(
        b'{"s":8192}]]]],"n2"]]]]\xff' + LARGE_VALUE.encode()
    )
    _, events = _profiled_round_trip(LARGE_ENVELOPE)
    assert 0 < events <= 130, events


def _envelope_of(vid):
    """The run envelope's frame with every view id ``vid``."""
    return encode_frame(("n1", OrderedRun(vid, 12, tuple(
        ((Label(vid, seq, "n2"), ("put", "key-17", "0" * 32)), "n2")
        for seq in range(3, 9)
    ))))


def test_a_run_of_one_view_builds_its_view_id_once(monkeypatch):
    """A six-entry run names its view seven times; decoded, the seven
    are one identifier, built once."""
    decode(encode(V2))  # the memo holds another view
    built = []
    init = ViewId.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    frame = _envelope_of(V1)
    monkeypatch.setattr(ViewId, "__init__", counted)
    [(_, run)] = FrameDecoder().feed(frame)
    assert built == [(1, "p1")]
    assert {label.id for (label, _), _ in run.entries} == {V1}
    assert all(label.id is run.vid for (label, _), _ in run.entries)


def test_the_view_id_memo_compares_types_exactly():
    """``[True, "n1"]`` and ``[1.0, "n1"]`` equal ``[1, "n1"]`` in
    Python; after decoding ``[1, "n1"]`` they are still refused."""
    assert decode(body('["@","ViewId",[1,"n1"]]')) == ViewId(1, "n1")
    for forged in ('[true,"n1"]', '[1.0,"n1"]'):
        with pytest.raises(CodecError, match="declared type"):
            decode(body('["@","ViewId",{0}]'.format(forged)))


def test_a_long_origin_goes_to_every_tail():
    """The emitter's memo never answers a text holding a placeholder:
    its string must be queued with each body, and each mention."""
    vid = ViewId(3, "o" * RAW_MIN)
    for value in (vid, (vid, vid), Ack(vid, 1)):
        assert decode(encode(value)) == value
        assert decode(encode(value)) == value


def _race(work, rounds):
    """Run ``work(i, rounds)`` on two threads at a fine switch interval;
    the list of what either reported."""
    wrong = []
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        wrong.extend(work(i, rounds))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return wrong


def test_two_threads_decoding_two_views_never_mix_them():
    """The decoder's memo is one ``(fields, id)`` pair swapped in one
    store: two threads decoding frames of two views, interleaved, each
    read every view their frame names."""
    views = (ViewId(4, "n1"), ViewId(5, "n2"))
    frames = [_envelope_of(vid) for vid in views]

    def work(i, rounds):
        wrong = []
        decoder = FrameDecoder()
        for k in range(rounds):
            vid = views[(i + k) % 2]
            [(_, run)] = decoder.feed(frames[(i + k) % 2])
            named = {run.vid} | {label.id for (label, _), _ in run.entries}
            if named != {vid}:
                wrong.append((vid, named))
        return wrong

    assert _race(work, 10_000) == []


def test_two_threads_encoding_two_views_never_mix_them():
    """The emitter's memo, likewise: each body names its own view."""
    views = (ViewId(4, "n1"), ViewId(5, "n2"))
    values = [("n1", Ack(vid, 3)) for vid in views]
    expected = [encode(value) for value in values]
    assert expected[0] != expected[1]

    def work(i, rounds):
        return [
            k for k in range(rounds)
            if encode(values[(i + k) % 2]) != expected[(i + k) % 2]
        ]

    assert _race(work, 10_000) == []


@pytest.mark.parametrize("frame", [
    body(' ["t",[]]'), body('["t",[]] '), body('\n1'), body('1\n'),
    body(' '), body('["t",[{"s":%d}]] ' % RAW_MIN) + b"\xff" + b"x" * RAW_MIN,
], ids=["before", "after", "newline-before", "newline-after", "only",
        "before-the-tail"])
def test_whitespace_around_a_body_is_refused(frame):
    """The body is read in one pass, to its last character: the encoder
    writes no whitespace around the JSON value, and the decoder reads
    none, before a tail's separator either."""
    with pytest.raises(CodecError):
        decode(frame)


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
