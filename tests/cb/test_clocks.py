"""Unit tests for the view-scoped vector-clock algebra.

The Hypothesis suite (tests/property/test_vclock_properties.py) checks
the drain's laws; these are the concrete cases that document the
intended behaviour, including the BSS delivery condition and the
hold-back drain.
"""

from repro.cb.clocks import (
    advance,
    deliverable,
    drain,
    entry,
    normalize,
    put,
    tick,
)


class TestCanonicalForm:
    def test_normalize_sorts_and_drops_zeros(self):
        assert normalize({"b": 2, "a": 1, "c": 0}) == (("a", 1), ("b", 2))

    def test_normalize_from_pairs_keeps_max_per_pid(self):
        assert normalize([("a", 1), ("a", 3), ("a", 2)]) == (("a", 3),)

    def test_normalize_drops_negatives(self):
        assert normalize([("a", -1)]) == ()

    def test_entry_defaults_to_zero(self):
        assert entry((("a", 1),), "b") == 0
        assert entry((("a", 1),), "a") == 1

    def test_put_keeps_canonical_order(self):
        clock = put((("a", 1), ("c", 2)), "b", 5)
        assert clock == (("a", 1), ("b", 5), ("c", 2))

    def test_put_zero_removes_the_entry(self):
        assert put((("a", 1), ("b", 2)), "a", 0) == (("b", 2),)

    def test_tick_increments(self):
        assert tick((), "a") == (("a", 1),)
        assert tick((("a", 1),), "a") == (("a", 2),)


class TestDeliverable:
    def test_next_from_sender_with_empty_past(self):
        # p1's first cast: clock ("p1", 1), nothing else required.
        assert deliverable((("p1", 1),), (), "p1")

    def test_gap_is_not_deliverable(self):
        assert not deliverable((("p1", 2),), (), "p1")

    def test_duplicate_is_not_deliverable(self):
        delivered = (("p1", 1),)
        assert not deliverable((("p1", 1),), delivered, "p1")

    def test_causal_past_must_be_delivered(self):
        # p2's first cast was sent after p2 delivered p1's first.
        clock = (("p1", 1), ("p2", 1))
        assert not deliverable(clock, (), "p2")
        assert deliverable(clock, (("p1", 1),), "p2")


class TestDrain:
    def test_release_unblocks_earlier_arrival(self):
        # p2's cast (depends on p1's) arrives before p1's.
        queue = [
            ("p2", (("p1", 1), ("p2", 1))),
            ("p1", (("p1", 1),)),
        ]
        released, remaining, delivered = drain(queue, ())
        assert released == (1, 0)
        assert remaining == ()
        assert delivered == (("p1", 1), ("p2", 1))

    def test_undeliverable_entries_remain(self):
        queue = [("p1", (("p1", 2),))]  # gap: first cast never arrived
        released, remaining, delivered = drain(queue, ())
        assert released == ()
        assert remaining == (0,)
        assert delivered == ()

    def test_fifo_preference_among_deliverable(self):
        queue = [("p1", (("p1", 1),)), ("p2", (("p2", 1),))]
        released, _, _ = drain(queue, ())
        assert released == (0, 1)
