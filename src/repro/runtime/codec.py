"""Versioned wire codec with length-prefixed framing.

A frame on the wire is ``<length:4 bytes big-endian> <version:1 byte>
<body>`` where the body is a canonical JSON document describing one
Python value.  The encoding is a closed, type-tagged scheme -- *not*
pickle -- so a malformed or hostile peer can never make the reader
execute anything; the worst a bad frame can do is raise
:class:`CodecError`, which the transport answers by dropping the
connection (the fair-lossy behaviour the layers above already tolerate).

Every value is encoded as a JSON array ``[tag, ...]``:

========  =====================================================
``"z"``   ``None``
``"b"``   bool          ``["b", true]``
``"i"``   int           ``["i", 42]``
``"f"``   finite float  ``["f", 2.5]`` (NaN/inf are unencodable)
``"s"``   str           ``["s", "..."]``
``"y"``   bytes         ``["y", "<base64>"]``
``"t"``   tuple         ``["t", [...]]``
``"l"``   list          ``["l", [...]]``
``"fz"``  frozenset     ``["fz", [...]]`` (canonically sorted)
``"st"``  set           ``["st", [...]]`` (canonically sorted)
``"d"``   dict          ``["d", [[k, v], ...]]`` (sorted by key)
``"@"``   dataclass     ``["@", "ClassName", [field values]]``
========  =====================================================

The ``"@"`` tag covers exactly the message dataclasses of the stack
(:data:`WIRE_TYPES`): the VS wire messages, the DVS protocol messages,
the TO labels/summaries, the CB casts, views and view identifiers, and
the runtime's own control messages.  Sets and dictionaries are serialized in a
canonical order so that encoding is deterministic: the same value always
produces the same bytes, which keeps wire logs diffable across runs.
"""

import base64
import json
import re
import struct
from dataclasses import dataclass, fields
from types import MappingProxyType

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
    SafeNote,
    StateReply,
)
from repro.to.summaries import Label, Summary

#: Bumped on any incompatible change to the frame or body layout, and
#: on any extension of the type registry (a peer speaking an older
#: version would reject the new ``"@"`` references as unknown types, so
#: additions are versioned too).  Version history:
#:
#: - ``1`` -- the original registry (VS/DVS/TO messages plus runtime
#:   control frames);
#: - ``2`` -- adds :class:`~repro.cb.messages.CbCast` for the causal
#:   broadcast tier.  Bodies are otherwise identical, so version-1
#:   frames decode unchanged (see :data:`SUPPORTED_WIRE_VERSIONS`).
WIRE_VERSION = 2

#: Body versions this decoder accepts.  Encoding always stamps
#: :data:`WIRE_VERSION`; decoding tolerates the older layouts that are
#: strict subsets of the current one, so mixed-version clusters keep
#: talking during a rolling upgrade.
SUPPORTED_WIRE_VERSIONS = (1, 2)

#: Frames longer than this are rejected before buffering (a garbage
#: length prefix must not make the reader allocate gigabytes).
MAX_FRAME = 1 << 24

_HEADER = struct.Struct(">I")


class CodecError(ValueError):
    """A value could not be encoded, or a frame could not be decoded."""


@dataclass(frozen=True)
class Hello:
    """Handshake: the first frame on every connection names the dialer."""

    pid: str


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon feeding the connectivity estimator."""


#: Every dataclass the codec can carry, by construction order of fields.
WIRE_TYPES = (
    ViewId, View,
    InfoMsg, RegisteredMsg, AckMsg,
    Collect, StateReply, Install, Data, Ordered, Ack, SafeNote,
    Label, Summary,
    CbCast,
    Hello, Heartbeat,
)

_BY_NAME = MappingProxyType({cls.__name__: cls for cls in WIRE_TYPES})

#: The pinned wire schema: class name -> ordered ``(field, annotation)``
#: pairs exactly as declared on the dataclass.  Field order is the
#: encoded order (the ``"@"`` tag carries positional values), so this
#: literal is a contract: renaming, retyping or reordering a field of
#: any registered dataclass without updating it here (and bumping
#: :data:`WIRE_VERSION` when the layout changes) is wire drift.
#: :func:`schema_drift` checks it.
WIRE_SCHEMA = MappingProxyType({
    "ViewId": (
        ("epoch", "int"),
        ("origin", "str"),
    ),
    "View": (
        ("id", "ViewId"),
        ("members", "FrozenSet[str]"),
    ),
    "InfoMsg": (
        ("act", "View"),
        ("amb", "FrozenSet[View]"),
    ),
    "RegisteredMsg": (),
    "AckMsg": (
        ("count", "int"),
    ),
    "Collect": (
        ("round_id", "Tuple[str, int]"),
        ("members", "frozenset"),
    ),
    "StateReply": (
        ("round_id", "Tuple[str, int]"),
        ("max_epoch", "int"),
    ),
    "Install": (
        ("round_id", "Tuple[str, int]"),
        ("view", "View"),
    ),
    "Data": (
        ("vid", "ViewId"),
        ("payload", "object"),
        ("sender", "str"),
    ),
    "Ordered": (
        ("vid", "ViewId"),
        ("seq", "int"),
        ("payload", "object"),
        ("sender", "str"),
    ),
    "Ack": (
        ("vid", "ViewId"),
        ("seq", "int"),
    ),
    "SafeNote": (
        ("vid", "ViewId"),
        ("seq", "int"),
    ),
    "Label": (
        ("id", "ViewId"),
        ("seqno", "int"),
        ("origin", "str"),
    ),
    "Summary": (
        ("con", "FrozenSet[Tuple[Label, object]]"),
        ("ord", "Tuple[Label, ...]"),
        ("next", "int"),
        ("high", "ViewId"),
    ),
    "CbCast": (
        ("vid", "ViewId"),
        ("clock", "Tuple[Tuple[str, int], ...]"),
        ("payload", "object"),
        ("origin", "str"),
    ),
    "Hello": (
        ("pid", "str"),
    ),
    "Heartbeat": (),
})


_DOTTED_NAME = re.compile(r"\b(?:\w+\.)+(\w+)")


def _annotation_name(annotation):
    """Render a live annotation the way the source declares it: bare
    class names, no ``typing.`` or module qualification."""
    if isinstance(annotation, type):
        text = annotation.__name__
    elif isinstance(annotation, str):
        text = annotation
    else:
        text = str(annotation)
    return _DOTTED_NAME.sub(r"\1", text)


def schema_drift():
    """Differences between :data:`WIRE_SCHEMA` and the live dataclasses.

    Returns a sorted list of human-readable drift descriptions (empty
    when the pin is faithful).  ``tests/runtime/test_codec.py``
    asserts it is empty, so a field rename/retype fails tier-1.
    """
    problems = []
    for cls in WIRE_TYPES:
        name = cls.__name__
        pinned = WIRE_SCHEMA.get(name)
        if pinned is None:
            problems.append("{0}: not pinned in WIRE_SCHEMA".format(name))
            continue
        live = tuple(
            (f.name, _annotation_name(f.type)) for f in fields(cls)
        )
        if live != tuple(pinned):
            problems.append(
                "{0}: declared fields {1!r} != pinned {2!r}".format(
                    name, live, tuple(pinned)
                )
            )
    for name in WIRE_SCHEMA:
        if name not in _BY_NAME:
            problems.append(
                "{0}: pinned in WIRE_SCHEMA but not in WIRE_TYPES".format(
                    name
                )
            )
    return sorted(problems)


#: Builtin annotation heads -> ``(accepted types, excluded types)``.
_SHALLOW = MappingProxyType({
    "bool": (bool, ()),
    "int": (int, bool),
    "float": ((int, float), bool),
    "str": (str, ()),
    "bytes": (bytes, ()),
    "FrozenSet": (frozenset, ()),
    "frozenset": (frozenset, ()),
    "Tuple": (tuple, ()),
    "tuple": (tuple, ()),
})


def _accepted(annotation):
    """The shallow check a pinned annotation string stands for, as
    ``(types, excluded)``: a value passes iff it is an instance of
    ``types`` and not of ``excluded`` (``types`` ``None``: anything).

    Containers are checked by outer type only (``FrozenSet[str]`` ->
    frozenset); a registered class name by instance; ``object`` and
    anything else accept everything.  Deep element validation is the
    decoder's job -- this guards the *reconstructed* message against
    forged field types the positional ``"@"`` decoding cannot rule out
    (a string where a sequence number belongs decodes fine).
    """
    base = annotation.split("[", 1)[0].strip()
    return _SHALLOW.get(base, (_BY_NAME.get(base), ()))


def _wire_table():
    """``class -> (name, field names, per-field accepted types)``,
    derived once from :data:`WIRE_SCHEMA`: what :func:`_pack`,
    :func:`_unpack` and :func:`validate_message` read per frame.  A
    class whose live fields have drifted from the pin gets no checks,
    so nothing of it validates (:func:`schema_drift` says why)."""
    table = {}
    for cls in WIRE_TYPES:
        names = tuple(f.name for f in fields(cls))
        pinned = WIRE_SCHEMA.get(cls.__name__, ())
        checks = None
        if tuple(name for name, _ in pinned) == names:
            checks = tuple(_accepted(annotation) for _, annotation in pinned)
        table[cls] = (cls.__name__, names, checks)
    return MappingProxyType(table)


_WIRE = _wire_table()


def validate_message(msg):
    """Whether a decoded wire message is schema-faithful.

    ``True`` iff ``msg`` is an instance of a registered wire type and
    every field shallow-matches its pinned :data:`WIRE_SCHEMA`
    annotation.  The receive path gates on this before a frame touches
    the hosted automaton stack: decoding guarantees well-formed
    *encoding*, not well-typed *content*, and any TCP client controls
    the content.
    """
    row = _WIRE.get(type(msg))
    if row is None or row[2] is None:
        return False
    for name, (types, excluded) in zip(row[1], row[2]):
        value = getattr(msg, name)
        if types is not None and (
            not isinstance(value, types) or isinstance(value, excluded)
        ):
            return False
    return True


def _canonical(packed):
    """A sort key making set/dict encodings deterministic."""
    return json.dumps(packed, separators=(",", ":"), sort_keys=True)


def _pack(value):
    """Recursively translate ``value`` into the tagged JSON scheme."""
    if value is None:
        return ["z"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, (bytes, bytearray)):
        return ["y", base64.b64encode(bytes(value)).decode("ascii")]
    if isinstance(value, tuple):
        return ["t", [_pack(item) for item in value]]
    if isinstance(value, list):
        return ["l", [_pack(item) for item in value]]
    if isinstance(value, frozenset):
        return ["fz", sorted((_pack(i) for i in value), key=_canonical)]
    if isinstance(value, set):
        return ["st", sorted((_pack(i) for i in value), key=_canonical)]
    if isinstance(value, dict):
        pairs = [[_pack(k), _pack(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: _canonical(pair[0]))
        return ["d", pairs]
    row = _WIRE.get(type(value))
    if row is not None:
        name, names, _ = row
        return ["@", name, [_pack(getattr(value, n)) for n in names]]
    raise CodecError(
        "unencodable value of type {0}".format(type(value).__name__)
    )


def _need(condition, detail):
    if not condition:
        raise CodecError("malformed body: {0}".format(detail))


def _unpack(node):
    """Inverse of :func:`_pack`; strict, raising :class:`CodecError`."""
    _need(isinstance(node, list) and node, "expected a tagged array")
    tag = node[0]
    _need(isinstance(tag, str), "tag must be a string")
    if tag == "z":
        _need(len(node) == 1, "null takes no payload")
        return None
    _need(len(node) >= 2, "tag {0!r} needs a payload".format(tag))
    payload = node[1]
    if tag == "b":
        _need(len(node) == 2 and isinstance(payload, bool), "bad bool")
        return payload
    if tag == "i":
        _need(
            len(node) == 2
            and isinstance(payload, int)
            and not isinstance(payload, bool),
            "bad int",
        )
        return payload
    if tag == "f":
        _need(
            len(node) == 2 and isinstance(payload, (int, float))
            and not isinstance(payload, bool),
            "bad float",
        )
        return float(payload)
    if tag == "s":
        _need(len(node) == 2 and isinstance(payload, str), "bad str")
        return payload
    if tag == "y":
        _need(len(node) == 2 and isinstance(payload, str), "bad bytes")
        try:
            return base64.b64decode(payload.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            raise CodecError("malformed body: bad base64")
    if tag in ("t", "l", "fz", "st"):
        _need(len(node) == 2 and isinstance(payload, list),
              "bad sequence payload")
        items = [_unpack(item) for item in payload]
        if tag == "t":
            return tuple(items)
        if tag == "l":
            return items
        try:
            return frozenset(items) if tag == "fz" else set(items)
        except TypeError:
            raise CodecError("malformed body: unhashable set element")
    if tag == "d":
        _need(len(node) == 2 and isinstance(payload, list), "bad dict")
        result = {}
        for pair in payload:
            _need(isinstance(pair, list) and len(pair) == 2,
                  "bad dict entry")
            try:
                result[_unpack(pair[0])] = _unpack(pair[1])
            except TypeError:
                raise CodecError("malformed body: unhashable dict key")
        return result
    if tag == "@":
        _need(len(node) == 3 and isinstance(payload, str),
              "bad dataclass reference")
        cls = _BY_NAME.get(payload)
        _need(cls is not None, "unknown type {0!r}".format(payload))
        values = node[2]
        _need(
            isinstance(values, list) and len(values) == len(_WIRE[cls][1]),
            "wrong field count for {0}".format(payload),
        )
        try:
            return cls(*[_unpack(item) for item in values])
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(
                "cannot rebuild {0}: {1}".format(payload, exc)
            )
    raise CodecError("malformed body: unknown tag {0!r}".format(tag))


# -- Body encoding -----------------------------------------------------------


def encode(value):
    """Encode one value into a version-prefixed body (no length header)."""
    packed = _pack(value)
    try:
        body = json.dumps(
            packed, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except ValueError as exc:
        raise CodecError("unencodable value: {0}".format(exc))
    return bytes([WIRE_VERSION]) + body


def decode(data):
    """Decode a body produced by :func:`encode`."""
    if not isinstance(data, (bytes, bytearray)) or len(data) < 2:
        raise CodecError("truncated body")
    if data[0] not in SUPPORTED_WIRE_VERSIONS:
        raise CodecError(
            "unsupported wire version {0} (speaking {1}, accepting {2})"
            .format(data[0], WIRE_VERSION, SUPPORTED_WIRE_VERSIONS)
        )
    try:
        document = json.loads(bytes(data[1:]).decode("utf-8"))
        return _unpack(document)
    except CodecError:
        raise
    except (UnicodeDecodeError, ValueError):
        raise CodecError("body is not valid UTF-8 JSON")
    except RecursionError:
        raise CodecError("body nesting exceeds the decoder's depth limit")


# -- Framing -----------------------------------------------------------------


def encode_frame(value):
    """One complete wire frame: length header plus encoded body."""
    body = encode(value)
    if len(body) > MAX_FRAME:
        raise CodecError(
            "frame of {0} bytes exceeds MAX_FRAME".format(len(body))
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(data):
    """Decode exactly one frame; trailing or missing bytes are errors."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if not messages:
        raise CodecError(
            "truncated frame: {0} bytes hold no complete frame".format(
                len(data)
            )
        )
    if len(messages) > 1 or decoder.pending:
        raise CodecError("trailing bytes after frame")
    return messages[0]


class FrameDecoder:
    """Incremental frame reassembly for a TCP byte stream.

    Feed arbitrary chunks; complete frames come back decoded, partial
    frames wait in the buffer.  A malformed length or body raises
    :class:`CodecError` -- the caller drops the connection; the decoder
    itself never crashes on truncation (TCP segmentation is normal).
    """

    def __init__(self):
        self._buffer = bytearray()

    @property
    def pending(self):
        """Bytes buffered awaiting a complete frame (0 at a boundary)."""
        return len(self._buffer)

    def feed(self, data):
        """Absorb ``data``; return the list of completed frame values."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise CodecError(
                    "frame length {0} exceeds limit {1}".format(
                        length, MAX_FRAME
                    )
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            messages.append(decode(body))
