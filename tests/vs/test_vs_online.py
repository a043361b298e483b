"""The online VS walk (:func:`vs_acceptor`) against the look-ahead one
(:func:`accept_vs`).

VS-CREATEVIEW wants increasing identifiers, so :func:`accept_vs`
creates every reported view below a newly reported one first, looking
ahead in the trace.  A monitor cannot look ahead.  It relies on
hoisting (DESIGN section 6): creation writes only ``created`` and only
VS-NEWVIEW reads it, so a view is created at its first report whenever
its id is above ``v0``'s and held by no created view.  These tests pin
that the two walks give the same verdict, and, while view ids are
distinct, the same rejection.
"""

import pytest

from repro.checking import build_closed_vs_spec, random_view_pool
from repro.core import make_view
from repro.core.viewids import ViewId
from repro.core.views import View
from repro.ioa import act, run_random
from repro.ioa.acceptor import RESTART
from repro.vs.spec import accept_vs, vs_acceptor

PROCS = ("p1", "p2", "p3")
V0 = make_view(0, PROCS)


def online(trace):
    acceptor = vs_acceptor(V0)
    for action in trace:
        if acceptor.step(action) is not None:
            break
    return acceptor


def view(epoch, origin, *members):
    return View(ViewId(epoch, origin), frozenset(members))


class TestHoisting:
    def test_a_view_reported_below_a_created_one_is_created_at_its_report(
        self,
    ):
        """g2 is created at its report; g1, lower, is reported after it.
        VS-CREATEVIEW(g1) is not enabled then, but it is at the front of
        the execution, before g2's: both walks accept."""
        low, high = view(1, "p3", "p3"), view(2, "p1", "p1", "p2")
        trace = [act("vs_newview", high, "p1"), act("vs_newview", low, "p3"),
                 act("vs_gpsnd", "m", "p3"), act("vs_gprcv", "m", "p3", "p3")]
        assert accept_vs(trace, V0)[1] is None
        walked = online(trace)
        assert walked.rejection is None
        assert walked.state.created == {V0, low, high}

    def test_an_id_at_or_below_v0s_is_not_creatable(self):
        stale = view(0, "", "p1")
        trace = [act("vs_newview", stale, "p1")]
        expected = accept_vs(trace, V0)[1]
        assert expected is not None
        assert online(trace).rejection == expected

    def test_a_re_minted_id_is_rejected_by_both(self):
        """Two views on one id (an amnesiac leader's, ROADMAP 4(gamma)):
        the second report forces a creation no execution can take."""
        first, again = view(1, "p1", "p1", "p2"), view(1, "p1", "p1")
        trace = [act("vs_newview", first, "p1"), act(RESTART, "p1"),
                 act("vs_newview", again, "p1")]
        expected = accept_vs(trace, V0)[1]
        assert expected is not None and expected.index == 2
        assert online(trace).rejection == expected

    def test_look_ahead_may_reject_a_re_minted_id_earlier(self):
        """The one way the walks differ: with two views on one id, a
        higher view reported between them makes :func:`accept_vs` create
        both first, and reject there; the online walk rejects at the
        second report.  Same verdict, later index."""
        first, again = view(1, "p1", "p1", "p2"), view(1, "p1", "p1")
        higher = view(2, "p3", "p3")
        trace = [act("vs_newview", first, "p1"),
                 act("vs_newview", higher, "p3"), act(RESTART, "p1"),
                 act("vs_newview", again, "p1")]
        assert accept_vs(trace, V0)[1].index == 1
        assert online(trace).rejection.index == 3


SEEDS = range(6)


def _vs_trace(seed):
    """A random execution of closed VS, projected on VS's external
    actions: views are created eagerly and reported slowly, so some
    process reports a view below one already reported elsewhere."""
    pool = random_view_pool(PROCS, 8, seed=seed)
    system, _ = build_closed_vs_spec(V0, PROCS, view_pool=pool, budget=6)
    execution = run_random(system, 400, seed=seed,
                           weights={"vs_createview": 1.0, "vs_newview": 0.3})
    return list(execution.trace())


def _reported_below_a_reported_view(trace):
    reported = []
    late = 0
    for action in trace:
        if action.name == "vs_newview" and action.params[0] not in reported:
            late += any(w.id > action.params[0].id for w in reported)
            reported.append(action.params[0])
    return late


class TestSameRejection:
    def test_the_executions_exercise_hoisting(self):
        assert sum(_reported_below_a_reported_view(_vs_trace(seed))
                   for seed in SEEDS) >= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_executions_of_vs_are_accepted_by_both(self, seed):
        trace = _vs_trace(seed)
        assert accept_vs(trace, V0)[1] is None
        assert online(trace).rejection is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_one_step_corruption_is_rejected_alike(self, seed):
        """Drop or repeat any one of the first 40 actions: whatever the
        look-ahead walk says, the online walk says too, to the index."""
        trace = _vs_trace(seed)
        rejected = 0
        for i in range(min(40, len(trace))):
            for corrupt in (trace[:i] + trace[i + 1:],
                            trace[:i + 1] + trace[i:]):
                expected = accept_vs(corrupt, V0)[1]
                assert online(corrupt).rejection == expected
                rejected += expected is not None
        assert rejected
