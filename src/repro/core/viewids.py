"""View identifiers: the totally ordered set ``G`` with least element ``g0``.

The paper only requires ``G`` to be a totally ordered set with a
distinguished least element.  The spec-level automata could use bare
integers, but the distributed implementations need members of different
partitions to mint *distinct* identifiers without coordination.  We
therefore use pairs ``(epoch, origin)`` ordered lexicographically: a
coordinator picks ``epoch`` larger than every epoch it has seen and
tie-breaks with its own process id.  ``g0 = (0, "")`` is the least element
because process ids are non-empty strings.

The bottom element ``⊥`` (the paper's ``G_⊥``) is represented by ``None``
and compares below every identifier through the ``vid_*`` helpers.

A ``ViewId`` is hashed on every set and dict operation of the message
path, so it computes its hash once, at construction.  The value is the
one the generated method would return, ``hash((epoch, origin))``, so
sets and dicts of identifiers iterate in the same order as they would
without the cache.  The fields and the cached hash live in slots, not
an instance dict: a run keeps one identifier per label it received, and
one more dict entry would cost each of them more than the slot does.
"""

import functools
from dataclasses import dataclass


@functools.total_ordering
@dataclass(frozen=True)
class ViewId:
    """An element of ``G``: lexicographically ordered ``(epoch, origin)``."""

    __slots__ = ("epoch", "origin", "_hash")

    epoch: int
    origin: str

    def __init__(self, epoch, origin=""):
        # Written out: a slot cannot have a class-level default, so the
        # default lives here (the dataclass keeps a hand-written init).
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_hash", hash((epoch, origin)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.epoch, self.origin) == (other.epoch, other.origin)

    def __reduce__(self):
        # Rebuilt through the constructor: a string hashes differently
        # in another interpreter, so the cached hash never travels (nor
        # could a frozen slotted instance be refilled slot by slot).
        return (self.__class__, (self.epoch, self.origin))

    def _key(self):
        return (self.epoch, self.origin)

    def __lt__(self, other):
        if not isinstance(other, ViewId):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self):
        if not self.origin:
            return "g{0}".format(self.epoch)
        return "g{0}@{1}".format(self.epoch, self.origin)

    def __repr__(self):
        return str(self)


#: The distinguished least element of ``G``.
G0 = ViewId(0, "")


def vid_lt(a, b):
    """``a < b`` over ``G_⊥`` where ``None`` (⊥) is below everything."""
    if b is None:
        return False
    if a is None:
        return True
    return a < b


def vid_le(a, b):
    return a == b or vid_lt(a, b)


def vid_gt(a, b):
    return vid_lt(b, a)


def vid_ge(a, b):
    return vid_le(b, a)
