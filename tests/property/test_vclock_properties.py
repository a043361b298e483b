"""Property-based tests (hypothesis) for the CB vector-clock algebra.

The laws documented in :mod:`repro.cb.clocks`: the canonical form is
canonical, and drain releases hold-back queues to an
arrival-order-independent fixpoint that respects the BSS delivery
condition.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.cb.clocks import (
    advance,
    deliverable,
    drain,
    entry,
    normalize,
    put,
    tick,
)

PIDS = ["p1", "p2", "p3", "p4", "p5"]

clocks = st.dictionaries(
    st.sampled_from(PIDS),
    st.integers(min_value=0, max_value=6),
    max_size=5,
).map(normalize)
pids = st.sampled_from(PIDS)


class TestCanonicalForm:
    @given(
        st.lists(
            st.tuples(pids, st.integers(min_value=-3, max_value=6)),
            max_size=10,
        )
    )
    def test_normalize_is_canonical_and_idempotent(self, pairs):
        clock = normalize(pairs)
        assert clock == tuple(sorted(clock))
        assert all(count > 0 for _, count in clock)
        assert normalize(clock) == clock

    @given(clocks, pids, st.integers(min_value=0, max_value=9))
    def test_put_then_entry_roundtrips(self, clock, pid, count):
        assert entry(put(clock, pid, count), pid) == count

    @given(clocks, pids)
    def test_tick_bumps_exactly_one_entry(self, clock, pid):
        bumped = tick(clock, pid)
        assert entry(bumped, pid) == entry(clock, pid) + 1
        for other in PIDS:
            if other != pid:
                assert entry(bumped, other) == entry(clock, other)


def _causal_history(seed, senders=3, casts=8):
    """A random but causally consistent multicast history: each cast is
    stamped the way a real sender would (deliver some prefix of the
    others' casts, then tick yourself)."""
    rng = random.Random(seed)
    procs = PIDS[:senders]
    delivered = {p: () for p in procs}
    sent = {p: 0 for p in procs}
    history = []  # (origin, clock) in send order
    for _ in range(casts):
        origin = rng.choice(procs)
        # The sender first delivers a random set of deliverable casts.
        progress = True
        while progress:
            progress = False
            for index, (who, clock) in enumerate(history):
                if rng.random() < 0.5 and deliverable(
                    clock, delivered[origin], who
                ):
                    delivered[origin] = advance(delivered[origin], who)
                    progress = True
        sent[origin] += 1
        stamp = put(delivered[origin], origin, sent[origin])
        history.append((origin, stamp))
    return history


class TestDrain:
    @given(st.integers(min_value=0, max_value=500), st.randoms())
    def test_fixpoint_independent_of_arrival_order(self, seed, rng):
        history = _causal_history(seed)
        shuffled = list(history)
        rng.shuffle(shuffled)
        a_released, a_rest, a_clock = drain(history, ())
        b_released, b_rest, b_clock = drain(shuffled, ())
        # A complete history drains fully from any interleaving, to the
        # same final delivered clock.
        assert a_rest == () and b_rest == ()
        assert a_clock == b_clock
        assert len(a_released) == len(history)

    @given(st.integers(min_value=0, max_value=500))
    def test_release_order_respects_bss(self, seed):
        history = _causal_history(seed)
        released, remaining, _ = drain(history, ())
        delivered = ()
        for index in released:
            origin, clock = history[index]
            assert deliverable(clock, delivered, origin)
            delivered = advance(delivered, origin)

    @given(st.integers(min_value=0, max_value=500), st.randoms())
    def test_withholding_a_cast_blocks_its_dependents_only(
        self, seed, rng
    ):
        history = _causal_history(seed)
        if not history:
            return
        drop = rng.randrange(len(history))
        queue = [
            pair for i, pair in enumerate(history) if i != drop
        ]
        released, remaining, delivered = drain(queue, ())
        blocked_origin, blocked_clock = history[drop]
        for index in remaining:
            origin, clock = queue[index]
            # Whatever stays held back is genuinely undeliverable.
            assert not deliverable(clock, delivered, origin)
