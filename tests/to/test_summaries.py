"""Unit tests for labels, summaries and the recovery functions."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.viewids import G0, ViewId
from repro.runtime.codec import decode, encode
from repro.to.summaries import (
    Label,
    Summary,
    chosenrep,
    fullorder,
    knowncontent,
    maxnextconfirm,
    maxprimary,
    reps,
    shortorder,
)


def lab(epoch, seqno, origin):
    return Label(ViewId(epoch), seqno, origin)


class TestLabelOrdering:
    def test_view_id_dominates(self):
        assert lab(1, 99, "z") < lab(2, 1, "a")

    def test_seqno_next(self):
        assert lab(1, 1, "z") < lab(1, 2, "a")

    def test_origin_breaks_ties(self):
        assert lab(1, 1, "a") < lab(1, 1, "b")

    def test_sortable_and_hashable(self):
        labels = [lab(2, 1, "a"), lab(1, 2, "b"), lab(1, 1, "c")]
        assert sorted(labels) == [lab(1, 1, "c"), lab(1, 2, "b"), lab(2, 1, "a")]
        assert len({lab(1, 1, "a"), lab(1, 1, "a")}) == 1


labels = st.builds(
    Label,
    st.builds(ViewId, st.integers(0, 2**40), st.text(max_size=6)),
    st.integers(1, 2**40),
    st.text(max_size=6),
)


class TestLabelHashContract:
    """A label hashes once, at construction, to its field tuple's hash."""

    @given(labels)
    def test_hash_is_the_field_tuples(self, label):
        assert hash(label) == hash((label.id, label.seqno, label.origin))
        assert hash(label) == hash(
            ((label.id.epoch, label.id.origin), label.seqno, label.origin)
        )

    @given(labels, labels)
    def test_equal_values_hash_equal(self, a, b):
        fields = (a.id, a.seqno, a.origin) == (b.id, b.seqno, b.origin)
        assert (a == b) == fields
        if fields:
            assert hash(a) == hash(b)

    @given(labels)
    def test_another_class_compares_as_before(self, label):
        as_tuple = (label.id, label.seqno, label.origin)
        assert label != as_tuple and label.__eq__(as_tuple) is NotImplemented
        with pytest.raises(TypeError):
            label < as_tuple

    @given(labels)
    def test_copies_keep_equality_and_hash(self, label):
        for copied in (
            copy.copy(label), copy.deepcopy(label),
            pickle.loads(pickle.dumps(label)),
            dataclasses.replace(label),
            decode(encode(label)),
        ):
            assert type(copied) is Label
            assert copied == label and hash(copied) == hash(label)
            assert {copied: 1}[label] == 1

    def test_still_frozen_with_the_same_fields(self):
        label = lab(1, 2, "p")
        with pytest.raises(dataclasses.FrozenInstanceError):
            label.seqno = 3
        assert [f.name for f in dataclasses.fields(Label)] == [
            "id", "seqno", "origin",
        ]
        assert repr(label) == "g1#2@p"
        assert not hasattr(label, "__dict__")


class TestSummary:
    def test_coercion(self):
        s = Summary(con={(lab(1, 1, "a"), "x")}, ord=[lab(1, 1, "a")],
                    next=1, high=G0)
        assert isinstance(s.con, frozenset)
        assert isinstance(s.ord, tuple)

    def test_con_and_ord_are_copied_at_construction(self):
        """Mutating the containers a summary was built from leaves the
        summary as built."""
        con, order = {(lab(1, 1, "a"), "x")}, [lab(1, 1, "a")]
        s = Summary(con=con, ord=order, next=2, high=G0)
        before = Summary(con=frozenset(con), ord=tuple(order), next=2,
                         high=G0)
        con.add((lab(1, 2, "a"), "y"))
        order.append(lab(1, 2, "a"))
        order.pop(0)
        assert s == before
        assert s.con == frozenset({(lab(1, 1, "a"), "x")})
        assert s.ord == (lab(1, 1, "a"),)

    def test_hashable(self):
        a = Summary(con=frozenset(), ord=(), next=1, high=G0)
        b = Summary(con=frozenset(), ord=(), next=1, high=G0)
        assert len({a, b}) == 1


def make_gotstate():
    l1, l2, l3 = lab(1, 1, "a"), lab(1, 1, "b"), lab(1, 2, "a")
    return {
        "a": Summary(
            con={(l1, "x"), (l3, "z")}, ord=(l1,), next=2, high=ViewId(1)
        ),
        "b": Summary(
            con={(l1, "x"), (l2, "y")}, ord=(l1, l2), next=1, high=ViewId(2)
        ),
        "c": Summary(con=set(), ord=(), next=1, high=ViewId(2)),
    }, (l1, l2, l3)


class TestRecoveryFunctions:
    def test_knowncontent_unions(self):
        gotstate, (l1, l2, l3) = make_gotstate()
        assert knowncontent(gotstate) == {(l1, "x"), (l2, "y"), (l3, "z")}

    def test_maxprimary(self):
        gotstate, _ = make_gotstate()
        assert maxprimary(gotstate) == ViewId(2)

    def test_maxnextconfirm(self):
        gotstate, _ = make_gotstate()
        assert maxnextconfirm(gotstate) == 2

    def test_reps_and_chosenrep_deterministic(self):
        gotstate, _ = make_gotstate()
        assert reps(gotstate) == {"b", "c"}
        assert chosenrep(gotstate) == "b"

    def test_shortorder_is_reps_order(self):
        gotstate, (l1, l2, _) = make_gotstate()
        assert shortorder(gotstate) == [l1, l2]

    def test_fullorder_appends_remaining_sorted(self):
        gotstate, (l1, l2, l3) = make_gotstate()
        assert fullorder(gotstate) == [l1, l2, l3]

    def test_fullorder_no_duplicates(self):
        gotstate, _ = make_gotstate()
        order = fullorder(gotstate)
        assert len(order) == len(set(order))

    def test_single_member(self):
        l1 = lab(1, 1, "a")
        gotstate = {
            "a": Summary(con={(l1, "x")}, ord=(), next=1, high=G0)
        }
        assert fullorder(gotstate) == [l1]
