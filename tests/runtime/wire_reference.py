"""The wire format's executable specification: the generic tree walks
``runtime/codec.py`` used through PR 19, kept verbatim as the reference
the compiled codec is tested against.

``reference_encode`` builds the tagged tree and hands it to
``json.dumps``; ``reference_decode`` is ``json.loads`` plus the strict
``_unpack`` walk.  The decoder is the *old* one on purpose, holes
included: it accepts non-finite floats, checks no field type below the
top-level message, and lets ``OverflowError`` escape on
``["f", <huge int>]`` -- ``test_codec_fuzz.py`` states exactly where
the product decoder is allowed to differ.  Not to be "fixed" or
optimised: its value is that it does not change.
"""

import base64
import json
from dataclasses import fields

from repro.runtime.codec import WIRE_TYPES, WIRE_VERSION, CodecError

_BY_NAME = {cls.__name__: cls for cls in WIRE_TYPES}

#: The version stamps this walk reads: its own window, frozen with it
#: (the product decoder reads only ``WIRE_VERSION``).
_VERSIONS = (1, 2, 3, 4, 5, 6)


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
    if type(value) in WIRE_TYPES:
        return ["@", type(value).__name__,
                [_pack(getattr(value, f.name)) for f in fields(value)]]
    raise CodecError(
        "unencodable value of type {0}".format(type(value).__name__)
    )


def reference_encode(value):
    packed = _pack(value)
    try:
        body = json.dumps(
            packed, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except ValueError as exc:
        raise CodecError("unencodable value: {0}".format(exc))
    return bytes([WIRE_VERSION]) + body


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
            isinstance(values, list) and len(values) == len(fields(cls)),
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


def reference_decode(data):
    if not isinstance(data, (bytes, bytearray)) or len(data) < 2:
        raise CodecError("truncated body")
    if data[0] not in _VERSIONS:
        raise CodecError("unsupported wire version {0}".format(data[0]))
    try:
        document = json.loads(bytes(data[1:]).decode("utf-8"))
        return _unpack(document)
    except CodecError:
        raise
    except (UnicodeDecodeError, ValueError):
        raise CodecError("body is not valid UTF-8 JSON")
    except RecursionError:
        raise CodecError("body nesting exceeds the decoder's depth limit")
