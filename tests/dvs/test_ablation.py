"""Experiment E7: the paper's preconditions are all load-bearing.

Each ablated variant of ``VS-TO-DVS_p`` removes one mechanism; randomized
executions then violate the corresponding safety invariant, while the
faithful algorithm (tests/dvs/test_dvs_impl.py) never does on the same
adversaries.
"""

import pytest

from repro.core import make_view
from repro.checking import build_closed_dvs_impl, random_view_pool
from repro.dvs.ablation import (
    EagerGarbageCollectVsToDvs,
    NoInfoWaitVsToDvs,
    NoMajorityCheckVsToDvs,
    StaticMajorityFilter,
)
from repro.dvs.impl import DvsImplState
from repro.dvs.invariants import (
    invariant_5_1,
    invariant_5_2,
    invariant_5_4,
    invariant_5_6,
)
from repro.ioa import InvariantSuite, run_random
from repro.ioa.invariants import lift
from repro.ioa.errors import InvariantViolation

UNIVERSE = ["p1", "p2", "p3", "p4", "p5"]
WEIGHTS = {
    "vs_createview": 0.4,
    "vs_newview": 1.5,
    "dvs_register": 2.5,
    "dvs_garbage_collect": 2.5,
    "dvs_newview": 2.0,
}


def hunt(factory, suite_factory, seeds, min_size=1):
    """Search seeds for an invariant violation; return the first found."""
    v0 = make_view(0, UNIVERSE)
    for seed in seeds:
        pool = random_view_pool(
            UNIVERSE, 7, seed=seed * 13 + 1, min_size=min_size
        )
        system, procs = build_closed_dvs_impl(
            v0,
            UNIVERSE,
            view_pool=pool,
            budget=1,
            eager_register=True,
            filter_factory=factory,
        )
        suite = suite_factory(procs)
        ex = run_random(system, 2500, seed=seed, weights=WEIGHTS)
        try:
            suite.check_execution(ex)
        except InvariantViolation as violation:
            return violation
    return None


class TestNoMajorityCheck:
    def test_disjoint_primaries_reachable(self):
        """Weakening majority to nonempty intersection admits two disjoint
        attempted primaries with no totally registered view between them
        (Invariant 5.6 violated)."""
        violation = hunt(
            NoMajorityCheckVsToDvs,
            lambda procs: InvariantSuite(
                {"5.6": lift(DvsImplState, procs, invariant_5_6)}
            ),
            seeds=range(6),
        )
        assert violation is not None
        assert "disjoint" in str(violation)


class TestNoInfoWait:
    def test_chained_majority_violated(self):
        """Attempting without everyone's info breaks Invariant 5.4: the
        new view need no longer hold a majority of a view attempted by a
        common member."""
        violation = hunt(
            NoInfoWaitVsToDvs,
            lambda procs: InvariantSuite(
                {
                    "5.1": lift(DvsImplState, procs, invariant_5_1),
                    "5.4": lift(DvsImplState, procs, invariant_5_4),
                }
            ),
            seeds=range(6),
        )
        assert violation is not None


class TestEagerGarbageCollection:
    def test_act_leaves_tot_reg(self):
        """Advancing ``act`` without registration evidence immediately
        breaks Invariant 5.2 part 1 (``act ∈ TotReg``), the anchor of the
        paper's information-flow argument."""
        violation = hunt(
            EagerGarbageCollectVsToDvs,
            lambda procs: InvariantSuite(
                {"5.2": lift(DvsImplState, procs, invariant_5_2)}
            ),
            seeds=range(6),
        )
        assert violation is not None
        assert "totally registered" in str(violation)

    def test_disjoint_primaries_by_script(self):
        """A scripted run showing the end-to-end failure: with eager
        garbage collection, the branch {p1,p2} keeps forming primaries
        against its own shrunken ``act`` while {p3,p4,p5} forms one
        against v0 -- two live disjoint primaries (Invariant 5.6).

        The script drives the composition action by action: v1={p1,p2,p3}
        is attempted and eagerly collected at p1/p2 (p3 receives the VS
        view, sends info, but never attempts), then v2={p1,p2} is
        attempted against act=v1, then v3={p3,p4,p5} is attempted against
        act=v0 at its members.
        """
        from repro.ioa import act

        v0 = make_view(0, UNIVERSE)
        v1 = make_view(1, {"p1", "p2", "p3"})
        v2 = make_view(2, {"p1", "p2"})
        v3 = make_view(3, {"p3", "p4", "p5"})
        system, procs = build_closed_dvs_impl(
            v0,
            UNIVERSE,
            view_pool=[v1, v2, v3],
            budget=0,
            filter_factory=EagerGarbageCollectVsToDvs,
        )
        s = system.initial_state()

        def do(state, *actions):
            for action in actions:
                state = system.apply(state, action)
            return state

        # v1 arrives at p1, p2, p3; infos flow; p1 and p2 attempt it.
        s = do(s, act("vs_createview", v1))
        for p in ["p1", "p2", "p3"]:
            s = do(s, act("vs_newview", v1, p))
        # Each member's info message moves through VS to the others.
        from repro.core.messages import InfoMsg

        info = InfoMsg(v0, frozenset())
        for p in ["p1", "p2", "p3"]:
            s = do(s, act("vs_gpsnd", info, p))
            s = do(s, act("vs_order", info, p, v1.id))
        for sender in ["p1", "p2", "p3"]:
            for receiver in ["p1", "p2", "p3"]:
                s = do(s, act("vs_gprcv", info, sender, receiver))
        s = do(s, act("dvs_newview", v1, "p1"))
        s = do(s, act("dvs_newview", v1, "p2"))
        # Eager GC at p1 and p2: act jumps to v1 with no registration.
        s = do(s, act("dvs_garbage_collect", v1, "p1"))
        s = do(s, act("dvs_garbage_collect", v1, "p2"))

        # v2 = {p1,p2}: a majority of v1, so the eager variant accepts.
        s = do(s, act("vs_createview", v2))
        for p in ["p1", "p2"]:
            s = do(s, act("vs_newview", v2, p))
        info_v1 = InfoMsg(v1, frozenset())
        for p in ["p1", "p2"]:
            s = do(s, act("vs_gpsnd", info_v1, p))
            s = do(s, act("vs_order", info_v1, p, v2.id))
        for sender in ["p1", "p2"]:
            for receiver in ["p1", "p2"]:
                s = do(s, act("vs_gprcv", info_v1, sender, receiver))
        s = do(s, act("dvs_newview", v2, "p1"))

        # v3 = {p3,p4,p5}: p4/p5 know only v0; p3 never attempted v1 so
        # its info still says act=v0 -- and the check passes against v0.
        s = do(s, act("vs_createview", v3))
        for p in ["p3", "p4", "p5"]:
            s = do(s, act("vs_newview", v3, p))
        # p3's amb does contain v1 only if p3 attempted it; it did not.
        for p in ["p3", "p4", "p5"]:
            s = do(s, act("vs_gpsnd", info, p))
            s = do(s, act("vs_order", info, p, v3.id))
        for sender in ["p3", "p4", "p5"]:
            for receiver in ["p3", "p4", "p5"]:
                s = do(s, act("vs_gprcv", info, sender, receiver))
        s = do(s, act("dvs_newview", v3, "p3"))

        # v2 and v3 are both attempted, disjoint, with TotReg = {v0} only.
        suite = InvariantSuite(
            {"5.6": lift(DvsImplState, procs, invariant_5_6)}
        )
        with pytest.raises(InvariantViolation):
            suite.check_state(s)


class TestStaticMajorityFilterIsSafeButUnavailable:
    def test_static_filter_never_violates_intersection(self):
        violation = hunt(
            StaticMajorityFilter,
            lambda procs: InvariantSuite(
                {"5.6": lift(DvsImplState, procs, invariant_5_6)}
            ),
            seeds=range(3),
        )
        assert violation is None

    def test_static_filter_rejects_minority_views(self):
        """After the universe halves, the dynamic filter accepts the
        surviving majority-of-previous view while the static one refuses
        everything below a static majority."""
        v0 = make_view(0, UNIVERSE)
        survivors = make_view(1, {"p1", "p2"})
        for factory, expected in [
            (StaticMajorityFilter, 0),
        ]:
            system, procs = build_closed_dvs_impl(
                v0,
                UNIVERSE,
                view_pool=[survivors],
                budget=0,
                eager_register=True,
                filter_factory=factory,
            )
            ex = run_random(system, 600, seed=0, weights=WEIGHTS)
            attempts = sum(
                1
                for a in ex.actions()
                if a.name == "dvs_newview" and a.params[0] == survivors
            )
            assert attempts == expected
