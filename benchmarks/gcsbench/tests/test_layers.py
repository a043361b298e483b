"""The frame-type classifier and the reversibility of the brackets."""

import repro.runtime.node as runtime_node
from repro.core.viewids import ViewId
from repro.gcs.messages import Ack, Ordered
from repro.gcs.vs_stack import VsStackNode
from repro.runtime.codec import FrameDecoder, Heartbeat, encode_frame
from repro.runtime.transport import PeerLink
from repro.to.summaries import Label

from benchmarks.gcsbench.layers import frame_type, instrument
from benchmarks.gcsbench.spans import Patches, SpanTable

VID = ViewId(1, "n1")


def test_classifier_reads_the_message_type_from_the_bytes():
    label = Label(VID, 7, "n2")
    ordered = Ordered(VID, 3, (label, ("put", "key-1", "0" * 32)), "n2")
    assert frame_type(encode_frame(("n1", ordered))) == "Ordered"
    assert frame_type(encode_frame(("n2", Ack(VID, 3)))) == "Ack"
    assert frame_type(encode_frame(("n3", Heartbeat()))) == "Heartbeat"


def test_classifier_ignores_types_nested_in_the_payload():
    # The Label inside the payload comes after the message's own tag.
    label = Label(VID, 1, "n1")
    frame = encode_frame(("n1", Ordered(VID, 1, (label, "x"), "n1")))
    assert frame.count(b'["@","') > 1
    assert frame_type(frame) == "Ordered"


def test_classifier_survives_garbage():
    assert frame_type(b"") == "other"
    assert frame_type(b"\x00\x00\x00\x02\x02[]") == "other"


def test_brackets_are_removed_afterwards():
    encode = runtime_node.encode_frame
    validate = runtime_node.validate_message
    listener = runtime_node.Listener
    feed = FrameDecoder.__dict__["feed"]
    send_frame = PeerLink.__dict__["send_frame"]
    on_message = VsStackNode.__dict__["on_message"]
    table = SpanTable()
    with Patches() as patches:
        counts = instrument(patches, table)
        assert runtime_node.encode_frame is not encode
        frame = runtime_node.encode_frame(("n1", Heartbeat()))
        assert counts.encodes == 1
        assert table.calls["codec.encode"] == 1
        assert frame == encode(("n1", Heartbeat()))
    assert runtime_node.encode_frame is encode
    assert runtime_node.validate_message is validate
    assert runtime_node.Listener is listener
    assert FrameDecoder.__dict__["feed"] is feed
    assert PeerLink.__dict__["send_frame"] is send_frame
    assert VsStackNode.__dict__["on_message"] is on_message
    # Inherited entry points were overridden for the run, not pinned.
    assert "send" not in VsStackNode.__dict__
    assert "on_timer" not in VsStackNode.__dict__
