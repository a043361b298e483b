"""Versioned wire codec with length-prefixed framing.

A frame on the wire is ``<length:4 bytes big-endian> <version:1 byte>
<body>`` where the body is a canonical JSON document describing one
Python value.  The encoding is a closed, type-tagged scheme -- *not*
pickle -- so a malformed or hostile peer can never make the reader
execute anything; the worst a bad frame can do is raise
:class:`CodecError`, which the transport answers by dropping the
connection (the fair-lossy behaviour the layers above already tolerate).

``None``, bool, int, finite float and str are written as native JSON
(``null``, ``true``, ``42``, ``2.5``, ``"n1"``; NaN and infinities are
refused both ways).  Every other value is a JSON array ``[tag, ...]``:

========  =====================================================
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

Both directions are compiled at import from :data:`WIRE_SCHEMA`: one
emitter and one decoder per class.  The decoder reads what the encoder
writes and nothing else: another version stamp, a non-finite number,
an unknown tag or class, a wrong arity, or a field that is not of its
pinned type -- at any depth -- is a :class:`CodecError`, so no frame
that decodes can fail to re-encode.
"""

import base64
import json
import re
import struct
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Optional

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
from repro.to.summaries import Label, Summary

#: The one version stamp written and read.  Bump it on any change to the
#: frame or body layout or to the type registry; only this version is
#: read (DESIGN section 9 keeps the history).
WIRE_VERSION = 6

#: Frames longer than this are rejected before buffering (a garbage
#: length prefix must not make the reader allocate gigabytes).
MAX_FRAME = 1 << 24

_HEADER = struct.Struct(">I")
_STAMP = bytes([WIRE_VERSION])


class CodecError(ValueError):
    """A value could not be encoded, or a frame could not be decoded."""


@dataclass(frozen=True)
class Hello:
    """Handshake: the first frame on every connection names the dialer."""

    pid: str


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon feeding the connectivity estimator; it
    names the sender's VS view (``None``: none yet)."""

    view: Optional[ViewId] = None


#: Every dataclass the codec can carry, by construction order of fields.
WIRE_TYPES = (
    ViewId, View,
    InfoMsg, RegisteredMsg, AckMsg,
    Collect, StateReply, Install, Data, Ordered, OrderedRun, Ack, SafeNote,
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
        ("n", "int"),
    ),
    "Ordered": (
        ("vid", "ViewId"),
        ("seq", "int"),
        ("payload", "object"),
        ("sender", "str"),
    ),
    "OrderedRun": (
        ("vid", "ViewId"),
        ("seq", "int"),
        ("entries", "Tuple[Tuple[object, str], ...]"),
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
    "Heartbeat": (
        ("view", "Optional[ViewId]"),
    ),
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


#: Builtin annotation heads -> the exact types a field so pinned may
#: hold.  Exact, not ``isinstance``: the decoder builds nothing else, and
#: a bool is not an int here.
_SHALLOW = MappingProxyType({
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bytes": (bytes,),
    "FrozenSet": (frozenset,),
    "frozenset": (frozenset,),
    "Tuple": (tuple,),
    "tuple": (tuple,),
})


def _accepted(annotation):
    """The shallow check a pinned annotation string stands for: the
    tuple of types a value may be exactly, empty for "anything".

    Containers are checked by outer type only (``FrozenSet[str]`` ->
    frozenset); a registered class name by that class; ``Optional[X]``
    by X's check or ``None``; ``object`` and anything else accept
    everything.  Elements are the tagged scheme's job -- this guards a
    message against forged field types the positional ``"@"`` encoding
    cannot rule out (a string where a sequence number belongs is
    well-formed).
    """
    base = annotation.split("[", 1)[0].strip()
    if base == "Optional":
        inner = _accepted(_optional_of(annotation))
        return inner + (type(None),) if inner else ()
    if base in _BY_NAME:
        return (_BY_NAME[base],)
    return _SHALLOW.get(base, ())


def _optional_of(annotation):
    """``X`` of the pin ``Optional[X]``."""
    return annotation.split("[", 1)[1].rsplit("]", 1)[0].strip()


#: One registered class: ``values(msg)`` is the tuple of its fields in
#: encoded order, ``checks`` one :func:`_accepted` tuple per field.
_Row = namedtuple("_Row", "values checks")


def _wire_table():
    """``class -> _Row``, compiled once from :data:`WIRE_SCHEMA`: what
    the encoder and :func:`validate_message` read, and the classes the
    decoder is compiled for.  A class whose live fields have
    drifted from the pin gets no row, so it neither encodes, decodes nor
    validates (:func:`schema_drift` says why)."""
    table = {}
    for cls in WIRE_TYPES:
        names = tuple(f.name for f in fields(cls))
        pinned = WIRE_SCHEMA.get(cls.__name__, ())
        if tuple(name for name, _ in pinned) != names:
            continue
        # A bare attrgetter of one name answers the value, not a tuple.
        values = attrgetter(*names) if len(names) > 1 else (
            lambda msg, names=names: tuple(getattr(msg, n) for n in names)
        )
        table[cls] = _Row(
            values, tuple(_accepted(annotation) for _, annotation in pinned)
        )
    return MappingProxyType(table)


_WIRE = _wire_table()


def _is_run(msg):
    """An :class:`OrderedRun` a member can accept: at least one entry,
    each a ``(payload, sender)`` pair with a string sender."""
    return bool(msg.entries) and all(
        type(entry) is tuple and len(entry) == 2 and type(entry[1]) is str
        for entry in msg.entries
    )


def validate_message(msg):
    """Whether a wire message is schema-faithful.

    ``True`` iff ``msg`` is exactly of a registered wire type, every
    field is exactly of a type its pinned :data:`WIRE_SCHEMA` annotation
    stands for, and a run's entries are what its handler unpacks
    (:func:`_is_run`).  :func:`decode` holds every registered value it
    rebuilds, at any depth, to the same pins; the receive path still
    gates on this, because not every message it is handed came through
    the decoder, and a pin checks a container by its outer type only.
    """
    row = _WIRE.get(type(msg))
    if row is None:
        return False
    for value, kinds in zip(row.values(msg), row.checks):
        if kinds and type(value) not in kinds:
            return False
    return type(msg) is not OrderedRun or _is_run(msg)


# -- Encoding: value -> canonical text ---------------------------------------
#
# One emitter per exact type writes what ``json.dumps`` wrote for the
# tagged tree (compact separators, ASCII-escaped strings) with no tree
# in between.  An element's text is also its sort key.

_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _encode_float(value):
    if -_INF < value < _INF:
        return float.__repr__(value)
    raise CodecError("unencodable value: non-finite float")


def _encode_bytes(value):
    return '["y","' + base64.b64encode(value).decode("ascii") + '"]'


def _sequence_emitter(head, sort=False):
    """Emitter of ``head`` + the elements' texts (sorted: a set)."""

    def emit(value):
        texts = [_ENCODE[type(item)](item) for item in value]
        if sort:
            texts.sort()
        return head + ",".join(texts) + "]]"

    return emit


def _encode_dict(value):
    pairs = [
        (_ENCODE[type(key)](key), _ENCODE[type(item)](item))
        for key, item in value.items()
    ]
    # By the key's text alone: keys that encode alike keep their order.
    pairs.sort(key=itemgetter(0))
    return '["d",[' + ",".join(
        ["[" + key + "," + item + "]" for key, item in pairs]
    ) + "]]"


def _class_emitter(cls, values):
    head = '["@","{0}",['.format(cls.__name__)

    def emit(msg):
        return head + ",".join(
            [_ENCODE[type(item)](item) for item in values(msg)]
        ) + "]]"

    return emit


#: Builtin ``(type, emitter)`` pairs, in the order the tagged scheme
#: has always tested them (bool before int).
_BUILTINS = (
    (type(None), lambda value: "null"),
    (bool, lambda value: "true" if value else "false"),
    (int, int.__repr__),
    (float, _encode_float),
    (str, _escape),
    (bytes, _encode_bytes),
    (bytearray, _encode_bytes),
    (tuple, _sequence_emitter('["t",[')),
    (list, _sequence_emitter('["l",[')),
    (frozenset, _sequence_emitter('["fz",[', sort=True)),
    (set, _sequence_emitter('["st",[', sort=True)),
    (dict, _encode_dict),
)


class _Emitters(dict):
    """``type -> emitter``.  A type that is not a key resolves (uncached:
    the table is read-only) to the first builtin it subclasses."""

    def __missing__(self, cls):
        for base, emit in _BUILTINS:
            if issubclass(cls, base):
                return emit
        raise CodecError(
            "unencodable value of type {0}".format(cls.__name__)
        )


_ENCODE = MappingProxyType(_Emitters(_BUILTINS + tuple(
    (cls, _class_emitter(cls, row.values)) for cls, row in _WIRE.items()
)))


def encode(value):
    """Encode one value into a version-prefixed body (no length header)."""
    try:
        text = _ENCODE[type(value)](value)
    except CodecError:
        raise
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise CodecError("unencodable value: {0}".format(exc))
    except RecursionError:
        raise CodecError("unencodable value: nested too deeply")
    return _STAMP + text.encode("ascii")


# -- Decoding: JSON tree -> value --------------------------------------------
#
# One walk.  A native scalar is its own value (a float only if finite);
# an array goes to the handler of its tag, which answers the value or
# raises CodecError.  Leaves are checked by exact type (``json`` builds
# nothing else) and an error's text is formatted only when it is raised.

#: Parsed JSON values that are, as they stand, the decoded value.
_NATIVE = frozenset((type(None), bool, int, str))


def _node(node):
    """The value of one parsed JSON node."""
    if type(node) is list:
        try:
            handler = _DECODE[node[0]]
        except (LookupError, TypeError):
            raise CodecError(
                "malformed body: expected an array headed by a known tag"
            )
        return handler(node)
    if type(node) in _NATIVE or type(node) is float and -_INF < node < _INF:
        return node
    raise CodecError("malformed body: a non-finite number or an object")


def _decode_bytes(node):
    if len(node) == 2 and type(node[1]) is str:
        try:
            return base64.b64decode(node[1].encode("ascii"), validate=True)
        except ValueError:
            pass
    raise CodecError("malformed body: bad bytes")


def _container(build):
    """Handler of ``[tag, [node, ...]]``: ``build(element values)``."""

    def handler(node):
        if len(node) == 2 and type(node[1]) is list:
            items = [i if type(i) in _NATIVE else _node(i) for i in node[1]]
            try:
                return build(items)
            except TypeError:
                raise CodecError("malformed body: unhashable set element")
        raise CodecError("malformed body: bad sequence payload")

    return handler


def _decode_dict(node):
    if not (len(node) == 2 and type(node[1]) is list):
        raise CodecError("malformed body: bad dict")
    result = {}
    for pair in node[1]:
        if type(pair) is not list or len(pair) != 2:
            raise CodecError("malformed body: bad dict entry")
        key, value = [i if type(i) in _NATIVE else _node(i) for i in pair]
        try:
            result[key] = value
        except TypeError:
            raise CodecError("malformed body: unhashable dict key")
    return result


def _decode_class(node):
    try:
        build = _DECODERS[node[1]]
    except (LookupError, TypeError):
        # Name the reference only: the node may be as large as a frame.
        ref = node[1] if len(node) > 1 else None
        raise CodecError("malformed body: unknown type " + (
            repr(ref[:80]) if type(ref) is str else type(ref).__name__
        ))
    return build(node)


_DECODE = MappingProxyType({
    "t": _container(tuple),
    "l": _container(list),
    "fz": _container(frozenset),
    "st": _container(set),
    "d": _decode_dict,
    "@": _decode_class,
    "y": _decode_bytes,
})


def _field(annotation, decoders):
    """``(fast, read)`` for a field pinned ``annotation``: a node whose
    type is in ``fast`` is already the field's value; any other goes
    through ``read``, which answers a value the pin allows or raises.  A
    class pin is checked by tag and class name, a container pin by tag,
    and a scalar pin by the exact type of what the node decodes to."""
    base = annotation.split("[", 1)[0].strip()
    if base == "Optional":
        fast, read = _field(_optional_of(annotation), decoders)
        return fast | {type(None)}, read
    off_pin = "malformed body: a field is not of its pinned type " + annotation
    tag = {"tuple": "t", "frozenset": "fz"}.get(base.lower())
    if base in _BY_NAME or tag:
        head = ["@", base] if base in _BY_NAME else [tag]
        size = len(head)
        # A class compiled earlier is built directly.
        handler = decoders.get(base, _DECODE[head[0]])

        def read(node):
            if type(node) is list and node[:size] == head:
                return handler(node)
            raise CodecError(off_pin)

        return frozenset(), read
    kinds = _accepted(annotation)
    if not kinds:
        return _NATIVE, _node

    def read_scalar(node):
        value = _node(node)
        if type(value) in kinds:
            return value
        raise CodecError(off_pin)

    return _NATIVE & frozenset(kinds), read_scalar


def _class_decoder(cls, pinned, decoders):
    """Decoder of ``cls`` from its ``["@", name, [field nodes]]``: every
    pinned field present, each checked against its pin as it is read."""
    readers = tuple(_field(annotation, decoders) for _, annotation in pinned)
    arity = len(readers)

    def build(node):
        nodes = node[2] if len(node) == 3 else None
        if type(nodes) is not list or len(nodes) != arity:
            raise CodecError(
                "malformed body: wrong field count for " + cls.__name__
            )
        values = [
            node if type(node) in fast else read(node)
            for node, (fast, read) in zip(nodes, readers)
        ]
        try:
            return cls(*values)
        except Exception as exc:
            raise CodecError(
                "cannot rebuild {0}: {1}".format(cls.__name__, exc)
            )

    return build


def _class_decoders():
    """Class name -> decoder, for every class :func:`_wire_table`
    compiled."""
    table = {}
    for cls in _WIRE:
        table[cls.__name__] = _class_decoder(
            cls, WIRE_SCHEMA[cls.__name__], table
        )
    return MappingProxyType(table)


_DECODERS = _class_decoders()


def _refuse_constant(literal):
    raise CodecError("malformed body: non-finite number " + literal)


_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def _decode_span(data, start, end):
    """Decode the version-prefixed body ``data[start:end]`` in place."""
    if end - start < 2:
        raise CodecError("truncated body")
    if data[start] != WIRE_VERSION:
        raise CodecError(
            "unsupported wire version {0} (speaking {1})"
            .format(data[start], WIRE_VERSION)
        )
    try:
        # The view is a temporary, so ``data`` is never left exported.
        return _node(
            _JSON.decode(str(memoryview(data)[start + 1:end], "utf-8"))
        )
    except CodecError:
        raise
    except ValueError:
        raise CodecError("body is not valid UTF-8 JSON")
    except RecursionError:
        raise CodecError("body nesting exceeds the decoder's depth limit")


def decode(data):
    """Decode a body produced by :func:`encode`."""
    if not isinstance(data, (bytes, bytearray)):
        raise CodecError("truncated body")
    return _decode_span(data, 0, len(data))


# -- Framing -----------------------------------------------------------------


def encode_frame(value):
    """One complete wire frame: length header plus encoded body."""
    body = encode(value)
    if len(body) > MAX_FRAME:
        raise CodecError(
            "frame of {0} bytes exceeds MAX_FRAME".format(len(body))
        )
    return _HEADER.pack(len(body)) + body


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
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        messages = []
        start = 0
        while size - start >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, start)
            if length > MAX_FRAME:
                raise CodecError(
                    "frame length {0} exceeds limit {1}".format(
                        length, MAX_FRAME
                    )
                )
            body = start + _HEADER.size
            if body + length > size:
                break
            start = body + length
            messages.append(_decode_span(buffer, body, start))
        del buffer[:start]
        return messages
