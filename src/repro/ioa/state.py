"""Automaton states and canonical fingerprints.

States are mutable attribute containers.  Transitions never mutate the
current state: :meth:`repro.ioa.automaton.Automaton.apply` copies the
state (:func:`clone`) and runs the effect on the copy.  Model checking and
refinement checking compare states through :func:`fingerprint`, a
canonical recursive freeze of the state's attributes (dicts sorted by key,
sets sorted, lists turned into tuples).
"""

import copy
from dataclasses import fields, is_dataclass


class State:
    """A mutable bag of named attributes with value-style equality.

    Subclasses (or plain instances) hold automaton variables as attributes.
    Equality and hashing go through :func:`fingerprint`, so two states with
    equal contents compare equal even when their containers differ in order
    (e.g. sets, dict insertion order).
    """

    def __init__(self, **attrs):
        for key, value in attrs.items():
            setattr(self, key, value)

    def copy(self):
        """Return a copy that is safe to mutate without affecting ``self``."""
        return clone(self)

    def attributes(self):
        """The state variables as a plain dict."""
        return dict(self.__dict__)

    def fingerprint(self):
        return fingerprint(self.__dict__)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        items = ", ".join(
            "{0}={1!r}".format(k, v) for k, v in sorted(self.__dict__.items())
        )
        return "{0}({1})".format(type(self).__name__, items)


def fingerprint(value):
    """Canonical hashable encoding of ``value``.

    Handles the containers used throughout the reproduction: dicts, sets,
    frozensets, lists, tuples, dataclasses, :class:`State` and scalars.
    Dict entries and set elements are sorted by the repr of their own
    fingerprints, which yields a total order even over heterogeneous keys.
    """
    if isinstance(value, State):
        return ("state", type(value).__name__, fingerprint(value.__dict__))
    custom = getattr(value, "fingerprint", None)
    if custom is not None and callable(custom) and not isinstance(value, type):
        return custom()
    if isinstance(value, dict):
        items = [(fingerprint(k), fingerprint(v)) for k, v in value.items()]
        items.sort(key=lambda kv: repr(kv[0]))
        return ("dict", tuple(items))
    if isinstance(value, (set, frozenset)):
        elements = sorted((fingerprint(v) for v in value), key=repr)
        return ("set", tuple(elements))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(fingerprint(v) for v in value))
    if is_dataclass(value) and not isinstance(value, type):
        if getattr(value, "__hash__", None) is not None:
            return value
        pairs = tuple(
            (f.name, fingerprint(getattr(value, f.name)))
            for f in fields(value)
        )
        return ("dc", type(value).__name__, pairs)
    return value


_ATOMS = frozenset({int, str, bool, float, bytes, type(None), frozenset})


def clone(value):
    """A copy of ``value`` sharing nothing mutable with it.

    Walks the structure :func:`fingerprint` walks: dicts, lists, sets,
    tuples and :class:`State` are rebuilt (keys and set elements are
    hashable, so shared); values hashable by content -- scalars, frozen
    dataclasses, frozensets -- are immutable and shared; anything else
    (a ``Table`` through its ``__deepcopy__``, which comes back here) is
    deep-copied.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        return {k: clone(v) for k, v in value.items()}
    if kind is list:
        return [clone(v) for v in value]
    if kind is tuple:
        return tuple([clone(v) for v in value])
    if kind is set:
        return set(value)
    if isinstance(value, State):
        twin = kind.__new__(kind)
        twin.__dict__ = clone(value.__dict__)
        return twin
    own = getattr(kind, "__deepcopy__", None)
    if own is not None:
        return own(value, {})
    if kind.__hash__ in (None, object.__hash__):
        return copy.deepcopy(value)
    return value
