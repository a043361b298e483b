"""Wire-schema migration: version 1 -> 2 (the CbCast addition) -> 3
(the OrderedRun addition) -> 4 (native JSON scalars) -> 5 (the
heartbeat's view id) -> 6 (the ``Data`` sender count).

Adding a message type or changing the body layout is a *versioned*
change in this codec: an older peer rejects unknown ``@`` type
references, untagged scalars and a field too many.  The decoder reads
one version, the one it writes: a body under any other stamp is a
typed error naming that stamp and the one spoken, so an old build is
refused at its first frame (its ``Hello``) and never heard.  The
golden bytes below are literal frames of each era: the v6 bodies are
written and read byte for byte; the older ones pin the layout the
reference walk (``wire_reference.py``) writes, and are refused here.
"""

import collections
import enum
import re
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kv_store import KvReplica
from repro.cb.messages import CbCast
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
from repro.runtime import node as runtime_node
from repro.runtime import transport
from repro.runtime.codec import (
    WIRE_SCHEMA,
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    Heartbeat,
    Hello,
    decode,
    encode,
    encode_frame,
    schema_drift,
    validate_message,
)
from repro.runtime.cluster import RuntimeCluster
from repro.to.summaries import Label, Summary
from tests.runtime.test_codec import messages, payloads
from tests.runtime.test_codec_fuzz import retagged
from tests.runtime.wire_reference import reference_decode, reference_encode

#: A literal body produced by the version-1 codec (before CbCast
#: existed).  Golden: do not regenerate from the current encoder.
GOLDEN_V1_TUPLE = b'\x01["t",[["s","w"],["s","n1"],["i",3]]]'

#: One literal frame of each retired stamp, 1 to 5.  The last is, after
#: its stamp, exactly what version 6 writes.
RETIRED_FRAMES = [
    GOLDEN_V1_TUPLE,
    b'\x02["@","Hello",[["s","n9"]]]',
    b'\x03["@","OrderedRun",[["@","ViewId",[["i",1],["s","n1"]]],["i",1],'
    b'["t",[["t",[["s","x"],["s","n1"]]]]]]]',
    b'\x04["@","Heartbeat",[]]',
    b'\x05["@","Heartbeat",[null]]',
]


class TestVersioning:
    def test_current_version_and_acceptance_window(self):
        """The window is one stamp wide: the body version 6 writes is
        refused under every other stamp."""
        assert WIRE_VERSION == 6
        body = encode(Heartbeat())
        assert decode(body) == Heartbeat()
        for stamp in range(256):
            if stamp != WIRE_VERSION:
                with pytest.raises(CodecError, match="wire version"):
                    decode(bytes([stamp]) + body[1:])

    def test_encode_stamps_the_current_version(self):
        assert encode(("w", "n1", 3))[0] == WIRE_VERSION

    @pytest.mark.parametrize(
        "golden", RETIRED_FRAMES, ids=lambda golden: str(golden[0]),
    )
    def test_a_retired_stamp_is_refused_naming_both(self, golden):
        """No read window: a frame an older build wrote is refused at
        the frame, by its stamp, with both versions named."""
        refusal = "unsupported wire version {0} (speaking 6)".format(
            golden[0])
        with pytest.raises(CodecError) as err:
            decode(golden)
        assert str(err.value) == refusal
        with pytest.raises(CodecError) as err:
            FrameDecoder().feed(len(golden).to_bytes(4, "big") + golden)
        assert str(err.value) == refusal

    def test_future_version_is_rejected_with_both_sides_named(self):
        body = bytes([7]) + encode(("x",))[1:]
        with pytest.raises(CodecError) as err:
            decode(body)
        message = str(err.value)
        assert "unsupported wire version 7" in message
        assert "speaking 6" in message

    def test_version_zero_is_rejected(self):
        body = bytes([0]) + encode(("x",))[1:]
        with pytest.raises(CodecError):
            decode(body)


class TestCbCastOnTheWire:
    def cast(self):
        return CbCast(
            ViewId(4, "n2"),
            (("n1", 2), ("n2", 5)),
            ("presence", "online"),
            "n2",
        )

    def test_round_trip(self):
        cast = self.cast()
        assert decode(encode(cast)) == cast

    def test_frame_round_trip(self):
        cast = self.cast()
        assert FrameDecoder().feed(encode_frame(cast)) == [cast]

    def test_registered_and_pinned(self):
        assert CbCast in WIRE_TYPES
        assert WIRE_SCHEMA["CbCast"] == (
            ("vid", "ViewId"),
            ("clock", "Tuple[Tuple[str, int], ...]"),
            ("payload", "object"),
            ("origin", "str"),
        )
        assert not schema_drift()

    def test_validates(self):
        assert validate_message(self.cast())

    def test_v1_peer_would_reject_it(self):
        """The reason the addition is versioned: a CbCast body names a
        type a v1 decoder does not know.  Simulate that decoder (same
        scheme, no CbCast registration) via a malformed reference."""
        body = encode(self.cast())
        tampered = body.replace(b'"CbCast"', b'"CbXast"')
        with pytest.raises(CodecError) as err:
            decode(tampered)
        assert "unknown type" in str(err.value)


class TestOrderedRunOnTheWire:
    def run(self):
        return OrderedRun(
            ViewId(2, "n2"), 7, ((("put", "k", 1), "n1"), (None, "n3")),
        )

    def test_frame_round_trip(self):
        run = self.run()
        assert FrameDecoder().feed(encode_frame(run)) == [run]

    def test_registered_and_pinned(self):
        assert OrderedRun in WIRE_TYPES
        assert WIRE_SCHEMA["OrderedRun"] == (
            ("vid", "ViewId"),
            ("seq", "int"),
            ("entries", "Tuple[Tuple[object, str], ...]"),
        )
        assert not schema_drift()
        assert validate_message(self.run())

    def test_v2_peer_would_reject_it(self):
        """Why it is version 3: a v2 decoder does not know the class."""
        body = encode(self.run()).replace(b'"OrderedRun"', b'"OrderedRux"')
        with pytest.raises(CodecError) as err:
            decode(body)
        assert "unknown type" in str(err.value)


class TestNativeScalarsOnTheWire:
    def data(self):
        return Data(V1, ("put", "k", 1.5, None, True), "n3", 1)

    def test_v3_peer_would_reject_it(self):
        """Why it is version 4: a v3 decoder refuses the stamp, and even
        under a v3 stamp its walk (the reference's) finds an untagged
        scalar where a tagged node belongs."""
        body = encode(self.data())
        assert body[0] not in (1, 2, 3)
        with pytest.raises(CodecError, match="tagged array"):
            reference_decode(bytes([3]) + body[1:])


class TestHeartbeatViewOnTheWire:
    def test_pinned_and_validated(self):
        assert WIRE_SCHEMA["Heartbeat"] == (("view", "Optional[ViewId]"),)
        assert not schema_drift()
        assert validate_message(Heartbeat(V1))
        assert validate_message(Heartbeat())
        assert not validate_message(Heartbeat("g1@n1"))

    def test_a_forged_view_is_refused(self):
        for forged in (b'"g1@n1"', b'1', b'["@","Hello",["n1"]]'):
            with pytest.raises(CodecError, match="pinned type"):
                decode(b'\x06["@","Heartbeat",[' + forged + b']]')
        with pytest.raises(CodecError, match="wrong field count"):
            decode(b'\x06["@","Heartbeat",[null,null]]')

    def test_no_class_may_leave_a_field_out(self):
        """A default on a class (``Heartbeat.view``, ``ViewId.origin``,
        ``View.members``, ``InfoMsg.amb``) does not make its field
        optional on the wire: every body carries its pinned arity."""
        vid = b'["@","ViewId",[1,"n1"]]'
        for short in (
            b'["@","Heartbeat",[]]',
            b'["@","ViewId",[1]]',
            b'["@","View",[' + vid + b']]',
            b'["@","InfoMsg",[["@","View",[' + vid + b',["fz",["n1"]]]]]]',
        ):
            with pytest.raises(CodecError, match="wrong field count"):
                decode(b"\x06" + short)


class TestDataCountOnTheWire:
    def test_pinned_and_validated(self):
        assert WIRE_SCHEMA["Data"] == (
            ("vid", "ViewId"),
            ("payload", "object"),
            ("sender", "str"),
            ("n", "int"),
        )
        assert not schema_drift()
        assert validate_message(Data(V1, "m", "n2", 1))
        assert not validate_message(Data(V1, "m", "n2", "1"))

    @pytest.mark.parametrize("count,refusal", [
        (b"", "wrong field count"),
        (b',null', "pinned type"),
        (b',"3"', "pinned type"),
    ], ids=["missing", "null", "string"])
    def test_a_data_without_its_count_is_refused(self, count, refusal):
        """Defaulting ``n`` would order the body with no FIFO check --
        the very gap version 6 closes -- so a ``Data`` without an int
        count is refused, not read as some default."""
        head = b'\x06["@","Data",[["@","ViewId",[1,"n1"]],"m","n2"'
        with pytest.raises(CodecError, match=refusal):
            decode(head + count + b"]]")
        assert decode(head + b",3]]") == Data(V1, "m", "n2", 3)


class TestRollingUpgrade:
    """A wire bump is a flag day: an old build is refused at its first
    frame, and the nodes that speak the current version go on without
    it."""

    def test_a_v3_data_frame_from_a_live_peer_is_refused(self):
        """The refusal, end to end: a ``Hello`` and a ``Data`` written by
        a v3 peer (the reference walk, stamped 3, no ``n``) reach a live
        sequencer over a raw socket.  Its listener refuses the first
        frame and drops the connection, so nothing is ordered and no
        member delivers the ``Data``; the cluster keeps running."""
        pids = ["n1", "n2", "n3"]
        cluster = RuntimeCluster(
            pids, app_factory=lambda node: KvReplica(node.to),
            hb_interval=0.05, hb_timeout=0.25, monitor=False,
        )
        with cluster:
            cluster.wait_formation(timeout=30.0)
            # n1 = min(view) is the sequencer; speak v3 to it as n2.
            port, vid = cluster.call_node(
                "n1", lambda node: (node.port, node.stack.view.id)
            )
            label = Label(
                cluster.call_node("n2", lambda node: node.to.current.id),
                1000, "n2",
            )
            command = (label, ("put", "k", "v3"))
            frames = _v3_frame(("n2", Hello("n2"))) + _v3_frame(
                ("n2", Data(vid, command, "n2", 1))
            )
            with socket.create_connection(("127.0.0.1", port)) as raw:
                raw.sendall(frames)
                raw.settimeout(20.0)
                assert raw.recv(1) == b""  # the listener hung up
            assert cluster.call_node(
                "n1", lambda node: node.stats()["rejected"]
            ) == 1
            cluster.bcast("n2", ("put", "k", "v6"))
            cluster.wait_until(
                lambda: all(
                    cluster.app(pid).log_length >= 1 for pid in pids
                ),
                timeout=20.0, what="a v6 request at all three nodes",
            )
            for pid in pids:
                assert cluster.call_app(pid, lambda app: app.get("k")) == "v6"
            assert cluster.errors() == {}

    def test_a_v5_peer_from_boot_is_refused_and_the_v6_majority_forms(
        self, monkeypatch,
    ):
        """n3 writes every frame as version 5 did: stamped 5, a ``Data``
        without ``n``.  Its ``Hello`` is refused at n1's and n2's
        listeners, so they never hear it, form a primary over
        themselves within a second (the estimator's grace for an
        unheard peer) and deliver.  Each says why n3 is out: its
        listener's refusals, the last one naming version 5.  Under a
        read window n3's ``Hello``, ``Heartbeat`` and ``StateReply``
        decoded, VS installed it, and DVS waited for an ``info`` from it
        that never came: its ``Data`` was refused."""
        v6_frame = encode_frame

        def v5_frame(envelope):
            if envelope[0] != "n3":
                return v6_frame(envelope)
            body = b"\x05" + v6_frame(envelope)[5:]
            if type(envelope[1]) is Data:
                body = _DATA_COUNT.sub(rb"\1", body)
            return len(body).to_bytes(4, "big") + body

        # The node writes its frames, the transport its Hello.
        monkeypatch.setattr(runtime_node, "encode_frame", v5_frame)
        monkeypatch.setattr(transport, "encode_frame", v5_frame)
        majority = ["n1", "n2"]
        cluster = RuntimeCluster(
            majority + ["n3"], app_factory=lambda node: KvReplica(node.to),
            hb_interval=0.05, hb_timeout=0.25, monitor=False,
        )
        with cluster:
            booted = time.monotonic()
            cluster.wait_formation(majority, timeout=10.0)
            assert time.monotonic() - booted < 1.0
            cluster.bcast("n1", ("put", "k", "v6"))
            cluster.wait_until(
                lambda: all(
                    cluster.app(pid).log_length >= 1 for pid in majority
                ),
                timeout=10.0, what="the put at n1 and n2",
            )
            for pid in majority:
                stats = cluster.call_node(pid, lambda node: node.stats())
                assert stats["rejected"] > 0
                assert stats["last_refusal"] == (
                    "unsupported wire version 5 (speaking 6)"
                )
                assert cluster.call_app(pid, lambda app: app.get("k")) == "v6"


def _v3_frame(value):
    body = bytes([3]) + legacy_body(reference_encode(value))
    return len(body).to_bytes(4, "big") + body


# -- The v2 bytes, pinned independently of any encoder ---------------------------

V1 = ViewId(1, "n1")
V2 = ViewId(2, "n2")
VIEW = View(V1, frozenset({"n1", "n2", "n3"}))
LABEL = Label(V1, 3, "n2")

#: Literal version-2 bodies, written by the PR 19 encoder (the generic
#: ``_pack`` + ``json.dumps`` walk): one per container tag and one per
#: registered class.  Golden: do not regenerate from the current
#: encoder -- a byte that moves here is a wire change and needs a
#: ``WIRE_VERSION`` bump, not a new literal.
GOLDEN_V2 = [
    (None,
     b'\x02["z"]'),
    (True,
     b'\x02["b",true]'),
    (-42,
     b'\x02["i",-42]'),
    (2 ** 80,
     b'\x02["i",1208925819614629174706176]'),
    (2.5,
     b'\x02["f",2.5]'),
    (-0.0,
     b'\x02["f",-0.0]'),
    (1e+22,
     b'\x02["f",1e+22]'),
    ('caf\u00e9 "q" \\ \n \U0001f600',
     b'\x02["s","caf\\u00e9 \\"q\\" \\\\ \\n \\ud83d\\ude00"]'),
    (b'\x00\xffwire',
     b'\x02["y","AP93aXJl"]'),
    (('w', 'n1', 3),
     b'\x02["t",[["s","w"],["s","n1"],["i",3]]]'),
    ([1, [2.0, None], ()],
     b'\x02["l",[["i",1],["l",[["f",2.0],["z"]]],["t",[]]]]'),
    (frozenset({'n3', 'n1', 'n2'}),
     b'\x02["fz",[["s","n1"],["s","n2"],["s","n3"]]]'),
    # Sorted as text, not as numbers: 10 before 9.
    ({10, 9, 'a'},
     b'\x02["st",[["i",10],["i",9],["s","a"]]]'),
    ({'b': 1, 'a': (2,), 3: None},
     b'\x02["d",[[["i",3],["z"]],[["s","a"],["t",[["i",2]]]],'
     b'[["s","b"],["i",1]]]]'),
    (V1,
     b'\x02["@","ViewId",[["i",1],["s","n1"]]]'),
    (VIEW,
     b'\x02["@","View",[["@","ViewId",[["i",1],["s","n1"]]],'
     b'["fz",[["s","n1"],["s","n2"],["s","n3"]]]]]'),
    (InfoMsg(VIEW, frozenset({View(V2, frozenset({'n1'}))})),
     b'\x02["@","InfoMsg",[["@","View",[["@","ViewId",[["i",1],'
     b'["s","n1"]]],["fz",[["s","n1"],["s","n2"],["s","n3"]]]]],'
     b'["fz",[["@","View",[["@","ViewId",[["i",2],["s","n2"]]],'
     b'["fz",[["s","n1"]]]]]]]]]'),
    (RegisteredMsg(),
     b'\x02["@","RegisteredMsg",[]]'),
    (AckMsg(7),
     b'\x02["@","AckMsg",[["i",7]]]'),
    (Collect(('n1', 4), frozenset({'n1', 'n2'})),
     b'\x02["@","Collect",[["t",[["s","n1"],["i",4]]],'
     b'["fz",[["s","n1"],["s","n2"]]]]]'),
    (StateReply(('n1', 4), 9),
     b'\x02["@","StateReply",[["t",[["s","n1"],["i",4]]],["i",9]]]'),
    (Install(('n1', 4), VIEW),
     b'\x02["@","Install",[["t",[["s","n1"],["i",4]]],["@","View",'
     b'[["@","ViewId",[["i",1],["s","n1"]]],'
     b'["fz",[["s","n1"],["s","n2"],["s","n3"]]]]]]]'),
    (Data(V1, ('put', 'k', 'v'), 'n3', 1),
     b'\x02["@","Data",[["@","ViewId",[["i",1],["s","n1"]]],'
     b'["t",[["s","put"],["s","k"],["s","v"]]],["s","n3"]]]'),
    (Ordered(V1, 12, (LABEL, ('put', 'key-17', '0' * 8)), 'n2'),
     b'\x02["@","Ordered",[["@","ViewId",[["i",1],["s","n1"]]],["i",12],'
     b'["t",[["@","Label",[["@","ViewId",[["i",1],["s","n1"]]],["i",3],'
     b'["s","n2"]]],["t",[["s","put"],["s","key-17"],["s","00000000"]]]]],'
     b'["s","n2"]]]'),
    (Ack(V1, 12),
     b'\x02["@","Ack",[["@","ViewId",[["i",1],["s","n1"]]],["i",12]]]'),
    (SafeNote(V2, 5),
     b'\x02["@","SafeNote",[["@","ViewId",[["i",2],["s","n2"]]],["i",5]]]'),
    (LABEL,
     b'\x02["@","Label",[["@","ViewId",[["i",1],["s","n1"]]],["i",3],'
     b'["s","n2"]]]'),
    (Summary(
        frozenset({(LABEL, ('put', 'a', 1)), (Label(V2, 0, 'n1'), None)}),
        (LABEL, Label(V2, 0, 'n1')), 2, V2),
     b'\x02["@","Summary",[["fz",[["t",[["@","Label",[["@","ViewId",'
     b'[["i",1],["s","n1"]]],["i",3],["s","n2"]]],["t",[["s","put"],'
     b'["s","a"],["i",1]]]]],["t",[["@","Label",[["@","ViewId",[["i",2],'
     b'["s","n2"]]],["i",0],["s","n1"]]],["z"]]]]],["t",[["@","Label",'
     b'[["@","ViewId",[["i",1],["s","n1"]]],["i",3],["s","n2"]]],'
     b'["@","Label",[["@","ViewId",[["i",2],["s","n2"]]],["i",0],'
     b'["s","n1"]]]]],["i",2],["@","ViewId",[["i",2],["s","n2"]]]]]'),
    (CbCast(V2, (('n1', 2), ('n2', 5)), ('typing', True), 'n2'),
     b'\x02["@","CbCast",[["@","ViewId",[["i",2],["s","n2"]]],'
     b'["t",[["t",[["s","n1"],["i",2]]],["t",[["s","n2"],["i",5]]]]],'
     b'["t",[["s","typing"],["b",true]]],["s","n2"]]]'),
    (Hello('n9'),
     b'\x02["@","Hello",[["s","n9"]]]'),
    (Heartbeat(),
     b'\x02["@","Heartbeat",[]]'),
]


#: Literal version-3 bodies: the one class version 3 added, a run of
#: two (a TO label with its command, a bare label) and a run of one.
#: Golden, as above.
GOLDEN_V3 = [
    (OrderedRun(V1, 12, (
        ((LABEL, ('put', 'key-17', '0' * 8)), 'n2'),
        ((Label(V1, 4, 'n3'), None), 'n3'),
    )),
     b'\x03["@","OrderedRun",[["@","ViewId",[["i",1],["s","n1"]]],["i",12],'
     b'["t",[["t",[["t",[["@","Label",[["@","ViewId",[["i",1],["s","n1"]]],'
     b'["i",3],["s","n2"]]],["t",[["s","put"],["s","key-17"],'
     b'["s","00000000"]]]]],["s","n2"]]],["t",[["t",[["@","Label",'
     b'[["@","ViewId",[["i",1],["s","n1"]]],["i",4],["s","n3"]]],["z"]]],'
     b'["s","n3"]]]]]]]'),
    (OrderedRun(V1, 1, (('x', 'n1'),)),
     b'\x03["@","OrderedRun",[["@","ViewId",[["i",1],["s","n1"]]],["i",1],'
     b'["t",[["t",[["s","x"],["s","n1"]]]]]]]'),
]


#: Literal version-4 bodies of the same values, in the same order: the
#: v2 / v3 documents with every scalar written as native JSON, and set
#: elements and dict entries re-sorted by their new text (``"a"`` now
#: sorts before ``10``).  Golden, as above.
GOLDEN_V4 = list(zip([value for value, _ in GOLDEN_V2 + GOLDEN_V3], [
    b'\x04null',
    b'\x04true',
    b'\x04-42',
    b'\x041208925819614629174706176',
    b'\x042.5',
    b'\x04-0.0',
    b'\x041e+22',
    b'\x04"caf\\u00e9 \\"q\\" \\\\ \\n \\ud83d\\ude00"',
    b'\x04["y","AP93aXJl"]',
    b'\x04["t",["w","n1",3]]',
    b'\x04["l",[1,["l",[2.0,null]],["t",[]]]]',
    b'\x04["fz",["n1","n2","n3"]]',
    b'\x04["st",["a",10,9]]',
    b'\x04["d",[["a",["t",[2]]],["b",1],[3,null]]]',
    b'\x04["@","ViewId",[1,"n1"]]',
    b'\x04["@","View",[["@","ViewId",[1,"n1"]],["fz",["n1","n2",'
     b'"n3"]]]]',
    b'\x04["@","InfoMsg",[["@","View",[["@","ViewId",[1,"n1"]],["fz",'
     b'["n1","n2","n3"]]]],["fz",[["@","View",[["@","ViewId",[2,'
     b'"n2"]],["fz",["n1"]]]]]]]]',
    b'\x04["@","RegisteredMsg",[]]',
    b'\x04["@","AckMsg",[7]]',
    b'\x04["@","Collect",[["t",["n1",4]],["fz",["n1","n2"]]]]',
    b'\x04["@","StateReply",[["t",["n1",4]],9]]',
    b'\x04["@","Install",[["t",["n1",4]],["@","View",[["@","ViewId",'
     b'[1,"n1"]],["fz",["n1","n2","n3"]]]]]]',
    b'\x04["@","Data",[["@","ViewId",[1,"n1"]],["t",["put","k","v"]],'
     b'"n3"]]',
    b'\x04["@","Ordered",[["@","ViewId",[1,"n1"]],12,["t",[["@",'
     b'"Label",[["@","ViewId",[1,"n1"]],3,"n2"]],["t",["put","key-17",'
     b'"00000000"]]]],"n2"]]',
    b'\x04["@","Ack",[["@","ViewId",[1,"n1"]],12]]',
    b'\x04["@","SafeNote",[["@","ViewId",[2,"n2"]],5]]',
    b'\x04["@","Label",[["@","ViewId",[1,"n1"]],3,"n2"]]',
    b'\x04["@","Summary",[["fz",[["t",[["@","Label",[["@","ViewId",'
     b'[1,"n1"]],3,"n2"]],["t",["put","a",1]]]],["t",[["@","Label",'
     b'[["@","ViewId",[2,"n2"]],0,"n1"]],null]]]],["t",[["@","Label",'
     b'[["@","ViewId",[1,"n1"]],3,"n2"]],["@","Label",[["@","ViewId",'
     b'[2,"n2"]],0,"n1"]]]],2,["@","ViewId",[2,"n2"]]]]',
    b'\x04["@","CbCast",[["@","ViewId",[2,"n2"]],["t",[["t",["n1",'
     b'2]],["t",["n2",5]]]],["t",["typing",true]],"n2"]]',
    b'\x04["@","Hello",["n9"]]',
    b'\x04["@","Heartbeat",[]]',
    b'\x04["@","OrderedRun",[["@","ViewId",[1,"n1"]],12,["t",[["t",'
     b'[["t",[["@","Label",[["@","ViewId",[1,"n1"]],3,"n2"]],["t",'
     b'["put","key-17","00000000"]]]],"n2"]],["t",[["t",[["@","Label",'
     b'[["@","ViewId",[1,"n1"]],4,"n3"]],null]],"n3"]]]]]]',
    b'\x04["@","OrderedRun",[["@","ViewId",[1,"n1"]],1,["t",[["t",'
     b'["x","n1"]]]]]]',
]))


#: Literal version-5 bodies: the one row version 5 changed, without and
#: with a view.  Every other v4 body above is, after its stamp, what
#: version 5 writes.  Golden, as above.
GOLDEN_V5 = [
    (Heartbeat(),
     b'\x05["@","Heartbeat",[null]]'),
    (Heartbeat(V1),
     b'\x05["@","Heartbeat",[["@","ViewId",[1,"n1"]]]]'),
]


#: Literal version-6 bodies: the one row version 6 changed.  Every
#: other v5 body above is, after its stamp, what version 6 writes.
#: Golden, as above.
GOLDEN_V6 = [
    (Data(V1, ('put', 'k', 'v'), 'n3', 1),
     b'\x06["@","Data",[["@","ViewId",[1,"n1"]],["t",["put","k","v"]],'
     b'"n3",1]]'),
]

#: The ``n`` closing a body whose value ends with a ``Data`` (its last
#: field), tagged or native.
_DATA_COUNT = re.compile(rb',(?:\["i",\d+\]|\d+)(\]\]+)$')


def legacy_body(body):
    """``body`` without its stamp, as versions 1-4 wrote it: a view-less
    ``Heartbeat`` had no field then (tagged ``["z"]`` or native
    ``null`` now), and a ``Data`` no ``n`` (nor in version 5)."""
    for empty in (b'"Heartbeat",[["z"]]]', b'"Heartbeat",[null]]'):
        body = body.replace(empty, b'"Heartbeat",[]]')
    if b'"Data"' in body:
        body = _DATA_COUNT.sub(rb"\1", body)
    return body[1:]


def assert_reads_back(value, body):
    """``body`` decodes to ``value``, of the same type."""
    decoded = decode(body)
    assert decoded == value and type(decoded) is type(value)


def assert_refused(golden):
    """``golden`` is refused by its stamp."""
    with pytest.raises(CodecError, match="wire version {0} ".format(
            golden[0])):
        decode(golden)


class Colour(enum.IntEnum):
    RED = 7


Point = collections.namedtuple("Point", "x y")


class TestPinnedBytes:
    def test_goldens_cover_every_tag_and_every_class(self):
        values = [value for value, _ in GOLDEN_V4]
        assert len(GOLDEN_V4) == len(GOLDEN_V2) + len(GOLDEN_V3)
        assert {type(v) for v in values} >= set(WIRE_TYPES) | {
            type(None), bool, int, float, str, bytes,
            tuple, list, frozenset, set, dict,
        }

    @pytest.mark.parametrize(
        "value,golden", GOLDEN_V2,
        ids=["{0}-{1}".format(i, type(v).__name__)
             for i, (v, _) in enumerate(GOLDEN_V2)],
    )
    def test_golden_v2_both_ways(self, value, golden):
        """The reference walk still writes each v2 body (the layout of
        versions 1-3, the one the fuzz differential reads through), and
        the decoder refuses it."""
        assert legacy_body(reference_encode(value)) == golden[1:]
        assert_refused(golden)

    @pytest.mark.parametrize(
        "value,golden", GOLDEN_V3,
        ids=["{0}-{1}".format(i, type(v).__name__)
             for i, (v, _) in enumerate(GOLDEN_V3)],
    )
    def test_golden_v3_both_ways(self, value, golden):
        assert reference_encode(value)[1:] == golden[1:]
        assert_refused(golden)

    @pytest.mark.parametrize(
        "value,golden", GOLDEN_V4,
        ids=["{0}-{1}".format(i, type(v).__name__)
             for i, (v, _) in enumerate(GOLDEN_V4)],
    )
    def test_golden_v4_both_ways(self, value, golden):
        """Version 6 writes each v4 body again under its own stamp, but
        for the rows versions 5 and 6 changed, and reads back what it
        writes; the v4 stamp is refused."""
        assert legacy_body(encode(value)) == golden[1:]
        assert_reads_back(value, encode(value))
        assert_refused(golden)
        # The v3 walk reads it once its scalars are tagged again.
        legacy = reference_decode(retagged(encode(value)))
        assert reference_encode(legacy) == reference_encode(value)

    @pytest.mark.parametrize(
        "value,golden", GOLDEN_V5,
        ids=["{0}-{1}".format(i, type(v).__name__)
             for i, (v, _) in enumerate(GOLDEN_V5)],
    )
    def test_golden_v5_both_ways(self, value, golden):
        assert encode(value)[1:] == golden[1:]
        assert_reads_back(value, encode(value))
        assert_refused(golden)
        legacy = reference_decode(retagged(golden))
        assert reference_encode(legacy) == reference_encode(value)

    @pytest.mark.parametrize(
        "value,golden", GOLDEN_V6,
        ids=["{0}-{1}".format(i, type(v).__name__)
             for i, (v, _) in enumerate(GOLDEN_V6)],
    )
    def test_golden_v6_both_ways(self, value, golden):
        assert encode(value) == golden
        assert_reads_back(value, golden)
        legacy = reference_decode(retagged(golden))
        assert reference_encode(legacy) == reference_encode(value)

    def test_subclasses_of_builtins_encode_as_their_builtin(self):
        """Not a key of the emitter table: resolved by ``issubclass``
        in the order the generic walk tested them."""
        for value, plain in [
            (Colour.RED, 7),
            (Point(1, "a"), (1, "a")),
            (collections.OrderedDict(b=1, a=2), {"a": 2, "b": 1}),
            (collections.Counter("aab"), {"a": 2, "b": 1}),
            (bytearray(b"ab"), b"ab"),
        ]:
            assert encode(value) == encode(plain)
            assert reference_encode(value) == reference_encode(plain)

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(payloads, messages))
    def test_encoder_writes_what_the_reference_writes(self, value):
        """Up to the scalars' spelling: the body, re-tagged, is a v3 body
        the reference reads as the same value (compared as the
        reference's canonical bytes, so 1 / 1.0 / True stay apart)."""
        legacy = reference_decode(retagged(encode(value)))
        assert reference_encode(legacy) == reference_encode(value)
