"""Structured fuzz of the decoder: hostile *documents*, not hostile bytes.

``test_garbage_body_never_crashes`` feeds random bytes, which never get
past ``json.loads``; everything interesting about the decoder happens
after it.  Here hypothesis builds JSON documents *from the tag
alphabet* -- mostly well-formed trees of registered classes and
containers, their scalars written natively -- and then damages one
subtree: an unknown tag (among them the scalar tags of versions 1-3),
a wrong arity, a payload of the wrong JSON type, a huge int or a
non-finite float, an unknown class, one field too many or too few, a
field of the wrong type two or more levels down.  A document may hold
long strings, which its body carries as version 7 does (placeholders
in the text, the strings in a tail after ``0xFF``), and a tail may be
damaged: a placeholder below ``RAW_MIN``, past the tail or not an int,
a placeholder with no separator, an empty or unread tail, invalid
UTF-8.  Two properties:

1. the typed-error contract: ``decode`` (and ``FrameDecoder.feed``,
   which is what a socket reaches) returns a value or raises
   :class:`CodecError` -- never ``OverflowError``, ``TypeError``,
   ``KeyError``...;
2. the differential: the product decoder and the reference decoder
   (``wire_reference.py``, the original walk, which knows only tagged
   scalars and inline strings, and is handed the document with its tail
   :func:`inlined` and then :func:`retag`-ged) agree -- same value, or
   both refuse -- except on the three tightenings this codec documents:
   non-finite floats, declared field types at every depth, and a v1-v3
   scalar tag anywhere in the document (the decoder reads only what
   version 7 writes).  A body whose tail does not read exactly has no
   inline document, and the product decoder refuses it.
"""

import base64
import json
import re
import struct
from dataclasses import fields
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import (
    RAW_MIN,
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    decode,
    encode,
)
from tests.runtime.wire_reference import reference_decode, reference_encode

HUGE = 10 ** 400

#: Class name -> its fields' declared types, in encoded order: what the
#: codec compiles its checks from, read here without the codec's help, so
#: that a fault in its derivation cannot blind this oracle too.
DECLARED = {
    cls.__name__: tuple(get_type_hints(cls)[f.name] for f in fields(cls))
    for cls in WIRE_TYPES
}


def _optional_of(declared):
    """``X`` of ``Optional[X]``, else ``None``."""
    args = get_args(declared)
    if get_origin(declared) is Union and args[1:] == (type(None),):
        return args[0]
    return None

short_text = st.text(max_size=6)

#: A string long enough for the tail: a short unit repeated (one unit
#: holds a lone surrogate, which the tail carries under
#: ``surrogatepass``).
long_text = st.builds(
    lambda unit, extra: unit * (RAW_MIN // len(unit) + extra),
    st.one_of(st.text(min_size=1, max_size=3), st.just("\ud800\u00e9")),
    st.integers(0, 1),
)

#: Any JSON value at all: what a damaged subtree is replaced with.
junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.just(HUGE),
        st.floats(), short_text,
        st.sampled_from(["z", "i", "s", "t", "fz", "@", "ViewId", "sx"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(short_text, children, max_size=2),
    ),
    max_leaves=6,
)

natives = st.one_of(
    st.none(), st.booleans(), st.integers() | st.just(HUGE), st.floats(),
    short_text, short_text, short_text, long_text,
)

leaves = st.one_of(
    natives,
    st.builds(
        lambda v: ["y", base64.b64encode(v).decode("ascii")],
        st.binary(max_size=6),
    ),
)


def _mostly_hashable(nodes):
    """Where hashing happens (set elements, dict keys): usually a leaf,
    so that a document is refused for the damage done to it and not for
    a list in a set."""
    return st.one_of(leaves, leaves, leaves, nodes)


def _field(declared, nodes):
    """A node of the tag the declared type asks for (shallowly:
    elements are arbitrary well-formed nodes) -- and, one time in 25,
    a well-formed node of whatever tag: the forged field."""
    inner = _optional_of(declared)
    if inner is not None:
        return st.one_of(st.none(), _field(inner, nodes))
    head = get_origin(declared) or declared
    if head is int:
        right = st.integers(0, 99)
    elif head is str:
        right = st.sampled_from(["n1", "n2"])
    elif head is frozenset:
        right = st.builds(
            lambda v: ["fz", v],
            st.lists(_mostly_hashable(nodes), min_size=1, max_size=3),
        )
    elif head is tuple:
        right = st.builds(lambda v: ["t", v], st.lists(nodes, max_size=3))
    elif head in WIRE_TYPES:
        right = _instance(head.__name__, nodes)
    else:
        return nodes
    return st.integers(0, 24).flatmap(lambda n: right if n else nodes)


def _instance(name, nodes):
    return st.tuples(
        *[_field(declared, nodes) for declared in DECLARED[name]]
    ).map(lambda values: ["@", name, list(values)])


def _grow(nodes):
    hashable = _mostly_hashable(nodes)
    return st.one_of(
        st.builds(
            lambda tag, items: [tag, items],
            st.sampled_from(["t", "l"]), st.lists(nodes, max_size=3),
        ),
        st.builds(
            lambda tag, items: [tag, items],
            st.sampled_from(["fz", "st"]), st.lists(hashable, max_size=3),
        ),
        st.builds(
            lambda pairs: ["d", [list(p) for p in pairs]],
            st.lists(st.tuples(hashable, nodes), max_size=2),
        ),
        st.sampled_from(sorted(DECLARED)).flatmap(
            lambda name: _instance(name, nodes)
        ),
    )


well_formed = st.recursive(leaves, _grow, max_leaves=10)

#: A registered message, as the wire carries: the usual top level.
well_formed_messages = st.sampled_from(sorted(DECLARED)).flatmap(
    lambda name: _instance(name, well_formed)
)
plausible = st.one_of(
    well_formed, well_formed_messages, well_formed_messages
)


def _damage(node, path, how, replacement):
    """Follow ``path`` into the document (never into a tag: each index
    picks among a list's elements after the first) and damage what is
    there: replace it, retag it, or -- in a list -- drop its last
    element or append the replacement to it."""
    if path and isinstance(node, list) and len(node) > 1:
        index = 1 + path[0] % (len(node) - 1)
        copy = list(node)
        copy[index] = _damage(node[index], path[1:], how, replacement)
        return copy
    if how == "drop" and isinstance(node, list) and node:
        return node[:-1]
    if how == "append" and isinstance(node, list):
        return node + [replacement]
    if how in TAGS + ("x", "") and isinstance(node, list) and node:
        return [how] + node[1:]
    return replacement


TAGS = ("z", "b", "i", "f", "s", "y", "t", "l", "fz", "st", "d", "@")

damaged = st.builds(
    _damage, plausible, st.lists(st.integers(0, 7), max_size=8),
    st.sampled_from(("replace",) * 6 + ("drop", "append") * 3
                    + TAGS + ("x", "")),
    # A well-formed node in the wrong place is the subtler forgery.
    st.one_of(well_formed, well_formed, junk),
)

documents = st.one_of(plausible, damaged, damaged, damaged, junk)

SEPARATOR = b"\xff"


def body_of(document):
    """``document`` with every string inline."""
    # allow_nan: NaN / Infinity / -Infinity literals are the point.
    return bytes([WIRE_VERSION]) + json.dumps(document).encode("utf-8")


def spliced(document):
    """``document`` as version 7 writes it: each long string in a list
    (a set's elements too, which the decoder reads though the encoder
    keeps them inline) replaced by its placeholder, and the strings
    after the separator in text order."""
    strings = []

    def splice(node):
        if type(node) is str and len(node) >= RAW_MIN:
            strings.append(node)
            return {"s": len(node)}
        if type(node) is list:
            return [splice(item) for item in node]
        return node

    body = body_of(splice(document))
    if not strings:
        return body
    return body + SEPARATOR + "".join(strings).encode(
        "utf-8", "surrogatepass")


_PLACEHOLDER = re.compile(rb'\{"s": (\d+)\}')


def _first_size(head, size):
    """``head`` with the first placeholder's size written ``size(n)``."""
    return _PLACEHOLDER.sub(
        lambda m: b'{"s": ' + size(m.group(1)) + b"}", head, 1)


#: How a tail is damaged, each a way the decoder must refuse it.
TAIL_DAMAGE = {
    "below_raw_min": lambda head, tail: (
        _first_size(head, lambda n: str(RAW_MIN - 1).encode()), tail),
    "past_the_tail": lambda head, tail: (
        _first_size(head, lambda n: str(int(n) + 1).encode()), tail),
    "bool_size": lambda head, tail: (
        _first_size(head, lambda n: b"true"), tail),
    "float_size": lambda head, tail: (
        _first_size(head, lambda n: n + b".0"), tail),
    "two_keys": lambda head, tail: (
        _first_size(head, lambda n: n + b', "s": ' + n), tail),
    "no_separator": lambda head, tail: (head, None),
    "empty_tail": lambda head, tail: (head, b""),
    "unread_tail": lambda head, tail: (head, tail + b"x"),
    "invalid_utf8": lambda head, tail: (head, tail[:7] + b"\x80" + tail[7:]),
}


def damage_tail(body, how):
    head, _, tail = body.partition(SEPARATOR)
    head, tail = TAIL_DAMAGE[how](head, tail)
    return head if tail is None else head + SEPARATOR + tail


#: A body that surely has a tail: some document beside a long string.
tailed = st.builds(
    lambda document, text: spliced(["t", [document, text]]),
    plausible, long_text,
)

bodies = st.one_of(
    documents.map(body_of), documents.map(spliced), tailed,
    st.builds(damage_tail, tailed, st.sampled_from(sorted(TAIL_DAMAGE))),
)


@settings(max_examples=600, deadline=None)
@given(body=bodies)
def test_decode_returns_a_value_or_raises_codec_error(body):
    frame = struct.pack(">I", len(body)) + body
    try:
        value = decode(body)
    except CodecError:
        with pytest.raises(CodecError):
            FrameDecoder().feed(frame)
        return
    assert FrameDecoder().feed(frame) == [value]
    # Whatever decodes can be sent on: the sequencer re-encodes what it
    # relays, so a value that decodes but does not encode wedges a view.
    assert decode(encode(value)) == value


@pytest.mark.parametrize("how", sorted(TAIL_DAMAGE))
def test_a_damaged_tail_is_a_codec_error(how):
    """Each way a tail can be wrong, on a ``Data`` whose payload holds
    two long strings: a ``CodecError``, from ``decode`` and from
    ``FrameDecoder.feed`` alike, where the undamaged body decodes."""
    body = spliced(["@", "Data", [
        ["@", "ViewId", [1, "n1"]],
        ["t", ["put", "a" * RAW_MIN, "\u00e9" * (RAW_MIN + 1)]], "n2", 1,
    ]])
    assert decode(body).payload[2] == "\u00e9" * (RAW_MIN + 1)
    damaged = damage_tail(body, how)
    with pytest.raises(CodecError):
        decode(damaged)
    with pytest.raises(CodecError):
        FrameDecoder().feed(struct.pack(">I", len(damaged)) + damaged)


def test_a_separator_without_a_placeholder_is_a_codec_error():
    for tail in (b"", b"x" * RAW_MIN):
        with pytest.raises(CodecError, match="tail"):
            decode(body_of(["t", ["n1"]]) + SEPARATOR + tail)


# -- The differential -------------------------------------------------------------

def retag(node):
    """``node`` as the version 1-3 walk reads it: every native scalar
    that stands where a value belongs spelled with its old tag.  The
    payload of a tag, and an array no walk accepts, are left as they
    are."""
    for kind, tag in ((bool, "b"), (int, "i"), (float, "f"), (str, "s")):
        if type(node) is kind:
            return [tag, node]
    if node is None:
        return ["z"]
    if type(node) is not list or not node or type(node[-1]) is not list:
        return node
    tag, items = node[0], node[-1]
    if tag in ("t", "l", "fz", "st") and len(node) == 2:
        return [tag, [retag(item) for item in items]]
    if tag == "@" and len(node) == 3:
        return node[:2] + [[retag(item) for item in items]]
    if tag == "d" and len(node) == 2:
        return [tag, [
            [retag(pair[0]), retag(pair[1])]
            if type(pair) is list and len(pair) == 2 else pair
            for pair in items
        ]]
    return node


def inlined(body):
    """The document of ``body`` with each placeholder replaced by the
    string it stands for; ``ValueError`` if the text is not JSON or the
    tail does not read exactly (a placeholder that is not ``{"s": n}``
    with an int ``RAW_MIN <= n <=`` the characters left, a tail left
    unread or empty, invalid UTF-8)."""
    head, separator, tail = bytes(body[1:]).partition(SEPARATOR)
    if not separator:
        return json.loads(head)
    text = tail.decode("utf-8", "surrogatepass")
    at = 0

    def placeholder(pairs):
        nonlocal at
        (key, size), = pairs
        if key != "s" or type(size) is not int \
                or not RAW_MIN <= size <= len(text) - at:
            raise ValueError("not a placeholder of the tail")
        at += size
        return text[at - size:at]

    document = json.loads(head, object_pairs_hook=placeholder)
    if not text or at != len(text):
        raise ValueError("tail not read exactly")
    return document


def retagged(body):
    """A body with its tail inlined and its scalars tagged: what the
    v1-v3 walk reads."""
    return body[:1] + json.dumps(retag(inlined(body))).encode()


def outcome(decoder, body):
    """``("value", v)`` or ``("refused", exception type)``."""
    try:
        return "value", decoder(body)
    except CodecError:
        return "refused", CodecError
    except OverflowError:  # the reference's known escape
        return "refused", OverflowError


#: Declared type (or its origin) -> the tag a field so declared must
#: carry.
TYPE_TAGS = {int: "i", str: "s", frozenset: "fz", tuple: "t"}


def finite_everywhere(node):
    """No ``["f", x]`` with a NaN, an infinity or an int too large for
    a double anywhere in the (re-tagged) document."""
    if not isinstance(node, list):
        return True
    if len(node) == 2 and node[0] == "f" and isinstance(node[1], (int, float)) \
            and not isinstance(node[1], bool):
        try:
            return float("-inf") < float(node[1]) < float("inf")
        except OverflowError:
            return False
    return all(finite_everywhere(child) for child in node)


def declared_everywhere(node):
    """Every ``["@", name, fields]`` in the (re-tagged) document
    carries, field by field, the tag its declared type asks for --
    stated on the *document*, where the decoder reads it field by
    field."""
    if not isinstance(node, list):
        return True
    if (len(node) == 3 and node[0] == "@" and isinstance(node[1], str)
            and node[1] in DECLARED and isinstance(node[2], list)
            and len(node[2]) == len(DECLARED[node[1]])):
        for field, declared in zip(node[2], DECLARED[node[1]]):
            tag = field[0] if isinstance(field, list) and field else None
            inner = _optional_of(declared)
            if inner is not None:
                if tag == "z":
                    continue
                declared = inner
            head = get_origin(declared) or declared
            if head in WIRE_TYPES:
                if tag != "@" or field[1:2] != [head.__name__]:
                    return False
            elif head in TYPE_TAGS and tag != TYPE_TAGS[head]:
                return False
    return all(declared_everywhere(child) for child in node)


#: The scalar tags of versions 1-3, which the reference reads and the
#: product decoder does not.
OLD_TAGS = ("z", "b", "i", "f", "s")


def natively_spelled(node):
    """No array anywhere in the document is headed by a v1-v3 scalar
    tag."""
    if not isinstance(node, list):
        return True
    if node and isinstance(node[0], str) and node[0] in OLD_TAGS:
        return False
    return all(natively_spelled(child) for child in node)


@settings(max_examples=600, deadline=None)
@given(body=bodies)
def test_decoders_agree_except_on_the_documented_tightenings(body):
    kind, new = outcome(decode, body)
    try:
        document = inlined(body)
    except ValueError:
        assert kind == "refused", body
        return
    legacy = retag(document)
    ref_kind, ref = outcome(reference_decode, body_of(legacy))
    assert new is not OverflowError
    if kind == "value":
        # Accepted: the reference accepts too and means the same value
        # (compared as canonical bytes, so 1 / 1.0 / True stay apart).
        assert ref_kind == "value"
        assert reference_encode(new) == reference_encode(ref)
    elif ref_kind == "value":
        # Refused where the reference accepted: only for the three
        # documented reasons.
        assert not (
            natively_spelled(document)
            and finite_everywhere(legacy) and declared_everywhere(legacy)
        ), document
