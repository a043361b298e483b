"""Labels, summaries and the recovery functions of Section 6.1.

``L = G x N^{>0} x P`` is the set of labels with selectors ``id``,
``seqno``, ``origin``; labels are totally ordered lexicographically (view
identifier first), which is the "label order" used by ``fullorder``.

``S = 2^C x seqof(L) x N^{>0} x G`` is the set of summaries with selectors
``con``, ``ord``, ``next``, ``high``: the content relation, the tentative
order, the next-confirm pointer and the highest established primary of the
summarizing process.  A label, like a :class:`~repro.core.viewids.ViewId`,
computes its hash once, at construction, equal to the generated
``hash((id, seqno, origin))`` (a delivery hashes its label several
times), and keeps it in a slot beside its fields.

Given ``Y``, a partial function from process ids to summaries (the
``gotstate`` variable), the paper defines::

    knowncontent(Y)   = union of Y(q).con
    maxprimary(Y)     = max of Y(q).high
    maxnextconfirm(Y) = max of Y(q).next
    reps(Y)           = {q : Y(q).high = maxprimary(Y)}
    chosenrep(Y)      = some element of reps(Y)          (here: the least)
    shortorder(Y)     = Y(chosenrep(Y)).ord
    fullorder(Y)      = shortorder(Y) followed by the remaining labels of
                        dom(knowncontent(Y)), in label order
"""

import functools
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.viewids import ViewId


@functools.total_ordering
@dataclass(frozen=True)
class Label:
    """A label ``<g, seqno, origin> ∈ L``; ordered lexicographically."""

    __slots__ = ("id", "seqno", "origin", "_hash")

    id: ViewId
    seqno: int
    origin: str

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.id, self.seqno, self.origin))
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.seqno, self.origin) == (
            other.id, other.seqno, other.origin
        )

    def __reduce__(self):
        return (self.__class__, (self.id, self.seqno, self.origin))

    def _key(self):
        return (self.id, self.seqno, self.origin)

    def __lt__(self, other):
        if not isinstance(other, Label):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self):
        return "{0}#{1}@{2}".format(self.id, self.seqno, self.origin)

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class Summary:
    """A summary ``<con, ord, next, high> ∈ S`` (one node's recovery state)."""

    con: FrozenSet[Tuple[Label, object]]
    ord: Tuple[Label, ...]
    next: int
    high: ViewId

    def __post_init__(self):
        if not isinstance(self.con, frozenset):
            object.__setattr__(self, "con", frozenset(self.con))
        if not isinstance(self.ord, tuple):
            object.__setattr__(self, "ord", tuple(self.ord))

    def __str__(self):
        return "summary(|con|={0}, |ord|={1}, next={2}, high={3})".format(
            len(self.con), len(self.ord), self.next, self.high
        )


def knowncontent(gotstate):
    """``∪_{q ∈ dom(Y)} Y(q).con``: every known (label, payload) pair."""
    content = set()
    for summary in gotstate.values():
        content |= summary.con
    return content


def maxprimary(gotstate):
    """``max_q Y(q).high``: the highest established primary seen."""
    return max(summary.high for summary in gotstate.values())


def maxnextconfirm(gotstate):
    """``max_q Y(q).next``: the furthest confirmation pointer."""
    return max(summary.next for summary in gotstate.values())


def reps(gotstate):
    """Members whose summary carries the maximal ``high``."""
    top = maxprimary(gotstate)
    return {q for q, summary in gotstate.items() if summary.high == top}


def chosenrep(gotstate):
    """A deterministic representative: the least member of ``reps``.

    The paper allows "some element in reps(Y)"; all members must make the
    same choice, so we fix the minimum process id.
    """
    return min(reps(gotstate))


def shortorder(gotstate):
    """The representative's tentative order."""
    return list(gotstate[chosenrep(gotstate)].ord)


def fullorder(gotstate):
    """``shortorder`` followed by the remaining known labels, label-sorted.

    This is the order every member adopts when it establishes the view:
    the representative's order is authoritative for the prefix; labels
    known only through content (never ordered anywhere reachable) are
    appended deterministically.
    """
    prefix = shortorder(gotstate)
    seen = set(prefix)
    remaining = sorted(
        {label for label, _ in knowncontent(gotstate)} - seen
    )
    return prefix + remaining
