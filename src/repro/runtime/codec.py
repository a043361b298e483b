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

A ``str`` of at least :data:`RAW_MIN` characters that is not inside a
set or a dict is written as the placeholder ``{"s":<length>}``; its
UTF-8 bytes travel verbatim, in text order, in a tail after one
``0xFF`` byte, which no UTF-8 text contains.  A body with no such
string has no tail.

The ``"@"`` tag covers exactly the message dataclasses of the stack
(:data:`WIRE_TYPES`): the VS wire messages, the DVS protocol messages,
the TO labels/summaries, the CB casts, views and view identifiers, and
the runtime's own control messages.  Sets and dictionaries are serialized in a
canonical order so that encoding is deterministic: the same value always
produces the same bytes, which keeps wire logs diffable across runs.

Both directions are compiled at import from the registered dataclasses
themselves, one emitter and one decoder per class: a class's fields in
declaration order are its encoded order, and their declared types are
its checks.  The decoder reads what the encoder writes and nothing
else: another version stamp, a non-finite number, an unknown tag or
class, a wrong arity, or a field that is not of its declared type -- at
any depth -- is a :class:`CodecError`, so no frame that decodes can
fail to re-encode.
"""

import base64
import json
import struct
import threading
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Optional, Union, get_args, get_origin, get_type_hints

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
WIRE_VERSION = 7

#: A ``str`` at least this long, outside a set or a dict, travels in the
#: body's tail instead of its JSON text: about where escaping and
#: scanning it inline starts to cost more than splitting it out
#: (DESIGN section 9, *Wire v7*).
RAW_MIN = 1024

#: Frames longer than this are rejected before buffering (a garbage
#: length prefix must not make the reader allocate gigabytes).
MAX_FRAME = 1 << 24

_HEADER = struct.Struct(">I")
_STAMP = bytes([WIRE_VERSION])
_SEPARATOR = b"\xff"


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


#: Every dataclass the codec can carry.  Each is its own wire schema: a
#: body carries its fields positionally, in declaration order, each
#: checked against its declared type.  Adding, removing or reordering a
#: field is a layout change and needs a :data:`WIRE_VERSION` bump; the
#: golden bodies of ``tests/runtime/test_codec_migration.py`` pin the
#: layout.
WIRE_TYPES = (
    ViewId, View,
    InfoMsg, RegisteredMsg, AckMsg,
    Collect, StateReply, Install, Data, Ordered, OrderedRun, Ack, SafeNote,
    Label, Summary,
    CbCast,
    Hello, Heartbeat,
)

#: Declared field types -> the exact types a field so declared may
#: hold.  Exact, not ``isinstance``: the decoder builds nothing else, and
#: a bool is not an int here.  A generic alias is looked up by its
#: origin (``FrozenSet[str]`` -> frozenset).
_SHALLOW = MappingProxyType({
    int: (int,),
    str: (str,),
    frozenset: (frozenset,),
    tuple: (tuple,),
})


def _optional_of(declared):
    """``X`` of a field declared ``Optional[X]``, else ``None``."""
    args = get_args(declared)
    if get_origin(declared) is Union and args[1:] == (type(None),):
        return args[0]
    return None


def _accepted(declared):
    """The shallow check a declared field type stands for: the tuple of
    types a value may be exactly, empty for "anything".

    Containers are checked by outer type only (``FrozenSet[str]`` ->
    frozenset); a registered class by that class; ``Optional[X]`` by
    X's check or ``None``; ``object`` and anything else accept
    everything.  Elements are the tagged scheme's job -- this guards a
    message against forged field types the positional ``"@"`` encoding
    cannot rule out (a string where a sequence number belongs is
    well-formed).
    """
    inner = _optional_of(declared)
    if inner is not None:
        kinds = _accepted(inner)
        return kinds + (type(None),) if kinds else ()
    if declared in WIRE_TYPES:
        return (declared,)
    return _SHALLOW.get(get_origin(declared) or declared, ())


#: One registered class: ``values(msg)`` is the tuple of its fields in
#: encoded order, ``types`` their declared types and ``checks`` one
#: :func:`_accepted` tuple per field.
_Row = namedtuple("_Row", "values types checks")


def _wire_table():
    """``class -> _Row``, compiled once from the registered dataclasses
    (:func:`dataclasses.fields` for the order,
    :func:`typing.get_type_hints` for the types): what the encoder and
    :func:`validate_message` read, and what the decoder is compiled
    from."""
    table = {}
    for cls in WIRE_TYPES:
        names = tuple(f.name for f in fields(cls))
        hints = get_type_hints(cls)
        # A bare attrgetter of one name answers the value, not a tuple.
        values = attrgetter(*names) if len(names) > 1 else (
            lambda msg, names=names: tuple(getattr(msg, n) for n in names)
        )
        types = tuple(hints[name] for name in names)
        table[cls] = _Row(values, types, tuple(map(_accepted, types)))
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
    field is exactly of a type its declaration allows
    (:func:`_accepted`), and a run's entries are what its handler
    unpacks (:func:`_is_run`).  :func:`decode` holds every registered
    value it rebuilds, at any depth, to the same checks; the receive
    path still gates on this, because not every message it is handed
    came through the decoder, and a check sees a container's outer type
    only.
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
# in between.  An element's text is also its sort key.  Two tables:
# ``_ENCODE`` moves a long string to the tail, ``_INLINE`` (a set's
# elements, a dict's entries) writes every string in the text, so that
# canonical order stays the order of the texts.

_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")

#: The long strings of the body the current thread is encoding, in text
#: order (:func:`encode` starts each body with a fresh list).
_RAW = threading.local()


def _encode_str(value):
    if len(value) < RAW_MIN:
        return _escape(value)
    _RAW.strings.append(value)
    return '{"s":%d}' % len(value)


def _encode_float(value):
    if -_INF < value < _INF:
        return float.__repr__(value)
    raise CodecError("unencodable value: non-finite float")


def _encode_bytes(value):
    return '["y","' + base64.b64encode(value).decode("ascii") + '"]'


def _set_emitter(head):
    """Emitter of ``head`` + the elements' inline texts, sorted."""

    def emit(value):
        texts = [_INLINE[type(item)](item) for item in value]
        texts.sort()
        return head + ",".join(texts) + "]]"

    return emit


def _encode_dict(value):
    pairs = [
        (_INLINE[type(key)](key), _INLINE[type(item)](item))
        for key, item in value.items()
    ]
    # By the key's text alone: keys that encode alike keep their order.
    pairs.sort(key=itemgetter(0))
    return '["d",[' + ",".join(
        ["[" + key + "," + item + "]" for key, item in pairs]
    ) + "]]"


def _one_text_per_view(emit):
    """The ``ViewId`` emitter ``emit``, answering the text it wrote last
    when handed the same identifier (``is``) again.  A text holding a
    placeholder is written afresh each time, so that its string joins
    every body's tail.  The memo is one ``(identifier, text)`` pair,
    replaced in one store, as the decoder's is (:func:`_one_per_view`)."""
    last = (None, None)

    def write(vid):
        nonlocal last
        key, text = last
        if vid is key:
            return text
        text = emit(vid)
        if '{"s":' not in text:
            last = (vid, text)
        return text

    return write


class _Emitters(dict):
    """``type -> emitter``.  A type that is not a key resolves (uncached:
    the table is read-only) to the first builtin it subclasses."""

    def __missing__(self, cls):
        for base, emit in self.builtins:
            if issubclass(cls, base):
                return emit
        raise CodecError(
            "unencodable value of type {0}".format(cls.__name__)
        )


def _emitters(encode_str):
    """The read-only emitter table whose strings, and whose sequences'
    and registered classes' elements at any depth, go through
    ``encode_str``; sets and dicts always emit through ``_INLINE``."""
    table = _Emitters()
    view = MappingProxyType(table)

    def sequence(head):
        def emit(value):
            return head + ",".join(
                [view[type(item)](item) for item in value]
            ) + "]]"

        return emit

    def registered(cls, values):
        head = '["@","{0}",['.format(cls.__name__)

        def emit(msg):
            return head + ",".join(
                [view[type(item)](item) for item in values(msg)]
            ) + "]]"

        return emit

    # Builtins in the order the tagged scheme has always tested them
    # (bool before int).
    table.builtins = (
        (type(None), lambda value: "null"),
        (bool, lambda value: "true" if value else "false"),
        (int, int.__repr__),
        (float, _encode_float),
        (str, encode_str),
        (bytes, _encode_bytes),
        (bytearray, _encode_bytes),
        (tuple, sequence('["t",[')),
        (list, sequence('["l",[')),
        (frozenset, _set_emitter('["fz",[')),
        (set, _set_emitter('["st",[')),
        (dict, _encode_dict),
    )
    table.update(table.builtins)
    table.update(
        (cls, registered(cls, row.values)) for cls, row in _WIRE.items()
    )
    table[ViewId] = _one_text_per_view(table[ViewId])
    return view


_INLINE = _emitters(_escape)
_ENCODE = _emitters(_encode_str)


def encode(value):
    """Encode one value into a version-prefixed body (no length header)."""
    raw = _RAW.strings = []
    try:
        text = _ENCODE[type(value)](value)
    except CodecError:
        raise
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise CodecError("unencodable value: {0}".format(exc))
    except RecursionError:
        raise CodecError("unencodable value: nested too deeply")
    if not raw:
        return _STAMP + text.encode("ascii")
    return b"".join((
        _STAMP, text.encode("ascii"), _SEPARATOR,
        "".join(raw).encode("utf-8", "surrogatepass"),
    ))


# -- Decoding: JSON tree -> value --------------------------------------------
#
# One walk.  A native scalar is its own value (a float only if finite);
# an array headed ``"@"`` goes straight to its class's decoder, a tuple
# is built where it is met, and any other array goes to the handler of
# its tag, which answers the value or raises CodecError.  Leaves are
# checked by exact type (``json`` builds nothing else) and an error's
# text is formatted only when it is raised.

#: Parsed JSON values that are, as they stand, the decoded value.
_NATIVE = frozenset((type(None), bool, int, str))


def _node(node):
    """The value of one parsed JSON node."""
    if type(node) is list:
        head = node[0] if node else None
        if head == "@":
            ref = node[1] if len(node) > 1 else None
            try:
                build = _DECODERS[ref]
            except (LookupError, TypeError):
                # Name the reference only: the node may be as large as a
                # frame.
                raise CodecError("malformed body: unknown type " + (
                    repr(ref[:80]) if type(ref) is str else type(ref).__name__
                ))
            return build(node)
        if head == "t" and len(node) == 2 and type(node[1]) is list:
            return tuple(
                [i if type(i) in _NATIVE else _node(i) for i in node[1]]
            )
        try:
            handler = _DECODE[head]
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


_DECODE = MappingProxyType({
    "t": _container(tuple),
    "l": _container(list),
    "fz": _container(frozenset),
    "st": _container(set),
    "d": _decode_dict,
    "y": _decode_bytes,
})


#: Declared container types -> the tag a field so declared must carry.
_TAGS = MappingProxyType({tuple: "t", frozenset: "fz"})


def _field(declared, decoders, off_type):
    """``(fast, read)`` for a field declared ``declared``: a node whose
    type is in ``fast`` is already the field's value; any other goes
    through ``read``, which answers a value the declaration allows or
    raises ``CodecError(off_type)``.  A registered class is checked by
    tag and class name and goes straight to that class's decoder, a
    container by tag, and a scalar by the exact type of what the node
    decodes to."""
    inner = _optional_of(declared)
    if inner is not None:
        fast, read = _field(inner, decoders, off_type)
        return fast | {type(None)}, read
    tag = _TAGS.get(get_origin(declared) or declared)
    if tag:
        handler = _DECODE[tag]

        def read(node):
            if type(node) is list and node and node[0] == tag:
                return handler(node)
            raise CodecError(off_type)

    elif declared in WIRE_TYPES:
        name = declared.__name__
        build = decoders[name]

        def read(node):
            if type(node) is list and len(node) > 1 and node[0] == "@" \
                    and node[1] == name:
                return build(node)
            raise CodecError(off_type)

    else:
        kinds = _accepted(declared)
        if not kinds:
            return _NATIVE, _node

        def read(node):
            value = _node(node)
            if type(value) in kinds:
                return value
            raise CodecError(off_type)

        return _NATIVE & frozenset(kinds), read
    return frozenset(), read


def _class_decoder(cls, row, decoders):
    """Decoder of ``cls`` from its ``["@", name, [field nodes]]``: every
    declared field present, each checked against its type as it is
    read."""
    readers = tuple(
        _field(declared, decoders, (
            "malformed body: {0}.{1} is not of its declared type"
            .format(cls.__name__, f.name)
        ))
        for f, declared in zip(fields(cls), row.types)
    )
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


def _one_per_view(build):
    """The ``ViewId`` decoder ``build``, answering the identifier it
    built last when handed the same field list again: a frame names its
    view in its message and again in every label, and decoded they are
    one object.

    The same list is an equal one *of the types an identifier holds*:
    ``[True, "n1"]`` and ``[1.0, "n1"]`` equal ``[1, "n1"]``, and
    ``build`` refuses them.  The memo is one ``(fields, identifier)``
    pair, replaced in one store, so a thread decoding beside another
    never pairs one frame's fields with another frame's identifier."""
    # The key is the parsed list itself, which nothing else holds once
    # its body is decoded; a tuple is never equal to one.
    last = ((), None)

    def read(node):
        nonlocal last
        key, vid = last
        nodes = node[2] if len(node) == 3 else None
        if nodes == key and type(nodes[0]) is int and type(nodes[1]) is str:
            return vid
        vid = build(node)
        last = (nodes, vid)
        return vid

    return read


def _class_decoders():
    """Class name -> decoder, for every registered class, compiled in
    :data:`WIRE_TYPES` order: the classes a class's fields name come
    before it, so each field reader holds its class's decoder."""
    table = {}
    for cls, row in _WIRE.items():
        build = _class_decoder(cls, row, table)
        table[cls.__name__] = _one_per_view(build) if cls is ViewId else build
    return MappingProxyType(table)


_DECODERS = _class_decoders()


def _refuse_constant(literal):
    raise CodecError("malformed body: non-finite number " + literal)


#: Reads one JSON value from a text at an index: ``(value, end)``.
_SCAN = json.JSONDecoder(parse_constant=_refuse_constant).scan_once


def _whole(scan, text):
    """The JSON value that is all of ``text``, read by ``scan`` in one
    pass: nothing, not even whitespace, before or after it (the encoder
    writes none)."""
    try:
        value, end = scan(text, 0)
    except StopIteration:
        raise CodecError("body is not valid UTF-8 JSON")
    if end != len(text):
        raise CodecError("malformed body: text after the JSON value")
    return value


#: The tail of the body the current thread is decoding and how far its
#: placeholders have read it (:func:`_read_tailed` sets both per body).
_TAIL = threading.local()


def _placeholder(pairs):
    """The ``object_pairs_hook`` of bodies with a tail: answers each
    ``{"s": n}`` placeholder, in text order, with the current tail's next
    ``n`` characters and refuses every other object."""
    if len(pairs) == 1:
        key, size = pairs[0]
        text, start = _TAIL.text, _TAIL.at
        if key == "s" and type(size) is int and \
                RAW_MIN <= size <= len(text) - start:
            _TAIL.at = start + size
            return text[start:_TAIL.at]
    raise CodecError(
        "malformed body: an object that is not a placeholder of the tail"
    )


_SCAN_TAILED = json.JSONDecoder(
    object_pairs_hook=_placeholder, parse_constant=_refuse_constant,
).scan_once


def _read_tailed(text, tail):
    """The value of the JSON ``text`` whose placeholders ``tail`` holds,
    every character of the tail read.  The tail is dropped again when
    the body is done, read or refused, so a damaged body neither keeps
    its tail alive nor reaches into the next one."""
    _TAIL.text, _TAIL.at = tail, 0
    try:
        value = _node(_whole(_SCAN_TAILED, text))
        if not tail or _TAIL.at != len(tail):
            raise CodecError("malformed body: tail not read exactly")
        return value
    finally:
        _TAIL.text = None


def _decode_span(data, start, end):
    """Decode the version-prefixed body ``data[start:end]`` in place."""
    if end - start < 2:
        raise CodecError("truncated body")
    if data[start] != WIRE_VERSION:
        raise CodecError(
            "unsupported wire version {0} (speaking {1})"
            .format(data[start], WIRE_VERSION)
        )
    split = data.find(_SEPARATOR, start + 1, end)
    try:
        # Each view is a temporary, so ``data`` is never left exported.
        if split < 0:
            return _node(_whole(
                _SCAN, str(memoryview(data)[start + 1:end], "utf-8")
            ))
        return _read_tailed(
            str(memoryview(data)[start + 1:split], "utf-8"),
            str(memoryview(data)[split + 1:end], "utf-8", "surrogatepass"),
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
