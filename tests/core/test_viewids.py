"""Unit tests for view identifiers and the G_⊥ comparison helpers."""

import pytest

from repro.core.viewids import (
    G0,
    ViewId,
    vid_ge,
    vid_gt,
    vid_le,
    vid_lt,
)


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
