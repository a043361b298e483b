"""Unit tests for view identifiers and the G_⊥ comparison helpers."""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.viewids import (
    G0,
    ViewId,
    vid_ge,
    vid_gt,
    vid_le,
    vid_lt,
)
from repro.runtime.codec import decode, encode


class TestViewIdOrdering:
    def test_epoch_dominates(self):
        assert ViewId(1, "z") < ViewId(2, "a")

    def test_origin_breaks_ties(self):
        assert ViewId(3, "a") < ViewId(3, "b")

    def test_total_order_is_strict(self):
        a, b = ViewId(2, "p"), ViewId(2, "p")
        assert a == b
        assert not a < b
        assert not b < a

    def test_g0_is_least(self):
        assert G0 < ViewId(0, "p")
        assert G0 < ViewId(1, "")
        assert not ViewId(0, "") < G0

    def test_sortable(self):
        ids = [ViewId(2, "b"), ViewId(1, "z"), ViewId(2, "a"), G0]
        assert sorted(ids) == [G0, ViewId(1, "z"), ViewId(2, "a"), ViewId(2, "b")]

    def test_comparison_operators(self):
        assert ViewId(1) <= ViewId(1)
        assert ViewId(1) >= ViewId(1)
        assert ViewId(1) <= ViewId(2)
        assert ViewId(2) >= ViewId(1)

    def test_hashable_and_eq(self):
        assert len({ViewId(1, "p"), ViewId(1, "p"), ViewId(1, "q")}) == 2


class TestBottomComparisons:
    def test_bottom_below_everything(self):
        assert vid_lt(None, G0)
        assert vid_lt(None, ViewId(7, "x"))
        assert not vid_lt(G0, None)

    def test_bottom_not_below_itself(self):
        assert not vid_lt(None, None)
        assert vid_le(None, None)

    def test_gt_ge(self):
        assert vid_gt(G0, None)
        assert vid_ge(G0, None)
        assert vid_ge(None, None)
        assert not vid_gt(None, None)

    def test_le_between_ids(self):
        assert vid_le(ViewId(1), ViewId(2))
        assert not vid_le(ViewId(2), ViewId(1))


class TestVidMax:

    def test_str_rendering(self):
        assert str(G0) == "g0"
        assert str(ViewId(3, "p1")) == "g3@p1"


# -- The hash contract: cached at construction, equal to the field tuple's --

epochs = st.integers(min_value=0, max_value=2**40)
origins = st.text(max_size=8)
view_ids = st.builds(ViewId, epochs, origins)


class _Twin:
    """Another class with the same fields, for cross-class comparisons."""

    def __init__(self, epoch, origin):
        self.epoch = epoch
        self.origin = origin


class TestViewIdHashContract:
    @given(epochs, origins)
    def test_hash_is_the_field_tuples(self, epoch, origin):
        assert hash(ViewId(epoch, origin)) == hash((epoch, origin))

    @given(view_ids, view_ids)
    def test_equal_values_hash_equal(self, a, b):
        assert (a == b) == ((a.epoch, a.origin) == (b.epoch, b.origin))
        if a == b:
            assert hash(a) == hash(b)

    @given(view_ids)
    def test_another_class_compares_as_before(self, vid):
        twin = _Twin(vid.epoch, vid.origin)
        assert vid != twin and not vid == twin
        assert vid.__eq__(twin) is NotImplemented
        assert vid != (vid.epoch, vid.origin)
        with pytest.raises(TypeError):
            vid < twin

    @given(view_ids)
    def test_copies_keep_equality_and_hash(self, vid):
        for copied in (
            copy.copy(vid), copy.deepcopy(vid),
            pickle.loads(pickle.dumps(vid)),
            dataclasses.replace(vid),
            decode(encode(vid)),
        ):
            assert type(copied) is ViewId
            assert copied == vid and hash(copied) == hash(vid)
        moved = dataclasses.replace(vid, epoch=vid.epoch + 1)
        assert hash(moved) == hash((vid.epoch + 1, vid.origin))

    def test_the_pickle_carries_fields_only(self):
        # The cached hash never travels: a string hashes differently in
        # another interpreter.
        assert ViewId(3, "p").__reduce__() == (ViewId, (3, "p"))

    def test_still_frozen(self):
        vid = ViewId(1, "p")
        with pytest.raises(dataclasses.FrozenInstanceError):
            vid.epoch = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            vid._hash = 0

    def test_fields_and_repr_unchanged(self):
        assert [
            (f.name, f.type) for f in dataclasses.fields(ViewId)
        ] == [("epoch", int), ("origin", str)]
        assert str(inspect.signature(ViewId)) == "(epoch, origin='')"
        assert ViewId(4) == ViewId(4, "") == ViewId(epoch=4)
        assert repr(ViewId(2, "p")) == "g2@p" and repr(G0) == "g0"

    def test_no_instance_dict(self):
        # A run keeps one id per received label: the fields and the
        # cached hash sit in slots, as small as the dict they replace.
        assert not hasattr(ViewId(1, "p"), "__dict__")

    def test_set_iteration_order_is_the_tuples(self):
        ids = [ViewId(e, o) for e in range(40) for o in ("", "a", "n17")]
        assert [(v.epoch, v.origin) for v in set(ids)] == list(
            {(v.epoch, v.origin) for v in ids}
        )
