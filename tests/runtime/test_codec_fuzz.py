"""Structured fuzz of the decoder: hostile *documents*, not hostile bytes.

``test_garbage_body_never_crashes`` feeds random bytes, which never get
past ``json.loads``; everything interesting about the decoder happens
after it.  Here hypothesis builds JSON documents *from the tag
alphabet* -- mostly well-formed trees of registered classes and
containers, their scalars written natively -- and then damages one
subtree: an unknown tag (among them the scalar tags of versions 1-3),
a wrong arity, a payload of the wrong JSON type, a huge int or a
non-finite float, an unknown class, one field too many or too few, a
field of the wrong type two or more levels down.  Two properties:

1. the typed-error contract: ``decode`` (and ``FrameDecoder.feed``,
   which is what a socket reaches) returns a value or raises
   :class:`CodecError` -- never ``OverflowError``, ``TypeError``,
   ``KeyError``...;
2. the differential: the product decoder and the reference decoder
   (``wire_reference.py``, the original walk, which knows only tagged
   scalars and is handed the document :func:`retag`-ged) agree -- same
   value, or both refuse -- except on the three tightenings this codec
   documents: non-finite floats, pinned field types at every depth, and
   a v1-v3 scalar tag anywhere in the document (the decoder reads only
   what version 6 writes).
"""

import base64
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import (
    WIRE_SCHEMA,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    decode,
    encode,
)
from tests.runtime.wire_reference import reference_decode, reference_encode

HUGE = 10 ** 400

short_text = st.text(max_size=6)

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
    short_text,
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


def _field(annotation, nodes):
    """A node of the tag the pinned annotation asks for (shallowly:
    elements are arbitrary well-formed nodes) -- and, one time in 25,
    a well-formed node of whatever tag: the forged field."""
    head = annotation.split("[", 1)[0]
    if head == "Optional":
        return st.one_of(st.none(), _field(annotation[9:-1], nodes))
    if head == "int":
        right = st.integers(0, 99)
    elif head == "str":
        right = st.sampled_from(["n1", "n2"])
    elif head in ("FrozenSet", "frozenset"):
        right = st.builds(
            lambda v: ["fz", v],
            st.lists(_mostly_hashable(nodes), min_size=1, max_size=3),
        )
    elif head == "Tuple":
        right = st.builds(lambda v: ["t", v], st.lists(nodes, max_size=3))
    elif head in WIRE_SCHEMA:
        right = _instance(head, nodes)
    else:
        return nodes
    return st.integers(0, 24).flatmap(lambda n: right if n else nodes)


def _instance(name, nodes):
    return st.tuples(
        *[_field(annotation, nodes) for _, annotation in WIRE_SCHEMA[name]]
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
        st.sampled_from(sorted(WIRE_SCHEMA)).flatmap(
            lambda name: _instance(name, nodes)
        ),
    )


well_formed = st.recursive(leaves, _grow, max_leaves=10)

#: A registered message, as the wire carries: the usual top level.
well_formed_messages = st.sampled_from(sorted(WIRE_SCHEMA)).flatmap(
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


def body_of(document):
    # allow_nan: NaN / Infinity / -Infinity literals are the point.
    return bytes([WIRE_VERSION]) + json.dumps(document).encode("utf-8")


@settings(max_examples=600, deadline=None)
@given(document=documents)
def test_decode_returns_a_value_or_raises_codec_error(document):
    body = body_of(document)
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


def retagged(body):
    """A body with its scalars tagged: what the v1-v3 walk reads."""
    return body[:1] + json.dumps(retag(json.loads(body[1:]))).encode()


def outcome(decoder, body):
    """``("value", v)`` or ``("refused", exception type)``."""
    try:
        return "value", decoder(body)
    except CodecError:
        return "refused", CodecError
    except OverflowError:  # the reference's known escape
        return "refused", OverflowError


#: Pinned annotation head -> the tag a field of that pin must carry.
PIN_TAGS = {
    "int": "i", "str": "s", "FrozenSet": "fz", "frozenset": "fz",
    "Tuple": "t",
}


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


def pinned_everywhere(node):
    """Every ``["@", name, fields]`` in the (re-tagged) document
    carries, field by field, the tag its pin asks for -- stated on the
    *document*, where the decoder reads it field by field."""
    if not isinstance(node, list):
        return True
    if (len(node) == 3 and node[0] == "@" and isinstance(node[1], str)
            and node[1] in WIRE_SCHEMA and isinstance(node[2], list)
            and len(node[2]) == len(WIRE_SCHEMA[node[1]])):
        for field, (_, annotation) in zip(node[2], WIRE_SCHEMA[node[1]]):
            tag = field[0] if isinstance(field, list) and field else None
            if annotation.startswith("Optional[") and tag == "z":
                continue
            head = annotation.split("[", 1)[0]
            if head == "Optional":
                head = annotation[9:-1]
            if head in WIRE_SCHEMA:
                if tag != "@" or field[1:2] != [head]:
                    return False
            elif head in PIN_TAGS and tag != PIN_TAGS[head]:
                return False
    return all(pinned_everywhere(child) for child in node)


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
@given(document=documents)
def test_decoders_agree_except_on_the_documented_tightenings(document):
    kind, new = outcome(decode, body_of(document))
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
            and finite_everywhere(legacy) and pinned_everywhere(legacy)
        ), document
