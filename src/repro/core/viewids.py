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
"""

import functools
from dataclasses import dataclass


@functools.total_ordering
@dataclass(frozen=True)
class ViewId:
    """An element of ``G``: lexicographically ordered ``(epoch, origin)``."""

    epoch: int
    origin: str = ""

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
