"""Property-based tests (hypothesis) for the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequences import is_consistent, is_prefix, lub
from repro.core.tables import Table
from repro.core.viewids import ViewId, vid_ge, vid_le, vid_lt
from repro.core.views import View
from repro.ioa.state import fingerprint

# -- Strategies ------------------------------------------------------------------

view_ids = st.builds(
    ViewId,
    st.integers(min_value=0, max_value=10),
    st.sampled_from(["", "a", "b", "c"]),
)
maybe_ids = st.one_of(st.none(), view_ids)
members = st.frozensets(
    st.sampled_from(["p1", "p2", "p3", "p4", "p5"]), min_size=1
)
views = st.builds(View, view_ids, members)
short_seqs = st.lists(st.integers(min_value=0, max_value=5), max_size=8)


class TestViewIdTotalOrder:
    @given(maybe_ids, maybe_ids)
    def test_trichotomy(self, a, b):
        assert (vid_lt(a, b) + vid_lt(b, a) + (a == b)) == 1

    @given(maybe_ids, maybe_ids, maybe_ids)
    def test_transitivity(self, a, b, c):
        if vid_lt(a, b) and vid_lt(b, c):
            assert vid_lt(a, c)

    @given(maybe_ids, maybe_ids)
    def test_le_ge_duality(self, a, b):
        assert vid_le(a, b) == vid_ge(b, a)


class TestPrefixLattice:
    @given(short_seqs, short_seqs)
    def test_prefix_antisymmetry(self, a, b):
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b

    @given(short_seqs, short_seqs, short_seqs)
    def test_prefix_transitivity(self, a, b, c):
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)

    @given(short_seqs)
    def test_prefixes_of_one_sequence_are_consistent(self, a):
        prefixes = [a[:i] for i in range(len(a) + 1)]
        assert is_consistent(prefixes)
        assert lub(prefixes) == a

    @given(short_seqs, st.integers(min_value=0, max_value=8))
    def test_lub_of_cut_points(self, a, k):
        k = min(k, len(a))
        assert lub([a[:k], a]) == a


class TestViewAlgebra:
    @given(views, views)
    def test_majority_implies_intersection(self, v, w):
        if v.majority_of(w):
            assert v.intersects(w)

    @given(views, views)
    def test_two_majorities_of_same_view_intersect(self, v, w):
        base = View(ViewId(0), frozenset({"p1", "p2", "p3", "p4", "p5"}))
        if v.majority_of(base) and w.majority_of(base):
            assert (v.set & base.set) & (w.set & base.set)

    @given(views)
    def test_self_majority(self, v):
        assert v.majority_of(v)


class TestFingerprintCanonicality:
    nested = st.recursive(
        st.one_of(st.integers(), st.text(max_size=3), st.none()),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=2), children, max_size=3),
        ),
        max_leaves=10,
    )

    @given(nested)
    def test_fingerprint_deterministic(self, value):
        assert fingerprint(value) == fingerprint(value)

    @given(st.dictionaries(st.text(max_size=3), st.integers(), max_size=5))
    def test_dict_insertion_order_irrelevant(self, d):
        reversed_d = dict(reversed(list(d.items())))
        assert fingerprint(d) == fingerprint(reversed_d)

    @given(st.frozensets(st.integers(), max_size=6))
    def test_set_representation_irrelevant(self, s):
        assert fingerprint(set(s)) == fingerprint(s)


class TestTableLaws:
    @given(
        st.dictionaries(
            st.text(max_size=2), st.integers(min_value=0, max_value=3),
            max_size=5,
        )
    )
    def test_storing_defaults_is_invisible(self, entries):
        t1 = Table(lambda: 0)
        t2 = Table(lambda: 0)
        for key, value in entries.items():
            t1[key] = value
            if value != 0:
                t2[key] = value
        assert t1 == t2
        assert hash(t1) == hash(t2)

    @given(st.lists(st.tuples(st.text(max_size=2), st.integers()), max_size=8))
    def test_get_after_set(self, writes):
        t = Table(lambda: None)
        expected = {}
        for key, value in writes:
            t[key] = value
            expected[key] = value
        for key, value in expected.items():
            assert t.get(key) == value
