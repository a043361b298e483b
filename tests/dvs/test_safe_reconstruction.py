"""The Figure 3 safe-forwarding gap (DESIGN.md §5), pinned as tests.

Figure 3 forwards the underlying VS-SAFE indication straight to the
client.  VS-SAFE witnesses delivery to every member's *filter*; DVS-SAFE
(Figure 2) requires delivery to every member's *client* (its precondition
quantifies over the specification's ``next`` pointers, which advance only
on DVS-GPRCV events).  A message can dwell in a filter's ``msgs-from-vs``
buffer -- or be discarded if the member never attempts the view -- so the
literal algorithm emits safe indications whose traces the DVS
specification cannot produce.  This refutes the literal Lemma 5.8 at
DVS-SAFE steps; the repair (end-to-end acknowledgments, the library
default) restores it.
"""

import pytest

from repro.core import make_view
from repro.checking import build_closed_dvs_impl, random_view_pool
from repro.dvs import dvs_refinement_checker
from repro.dvs.vs_to_dvs import LiteralSafeVsToDvs, VsToDvs
from repro.ioa import act, run_random
from repro.ioa.errors import RefinementFailure

UNIVERSE = ["p1", "p2", "p3", "p4"]
V0 = make_view(0, UNIVERSE[:3])


def falsifying_run(filter_factory):
    """The execution hypothesis found (seed 0, singleton-capable pool)."""
    pool = random_view_pool(UNIVERSE, 4, seed=0, min_size=1)
    system, procs = build_closed_dvs_impl(
        V0, UNIVERSE, view_pool=pool, budget=1,
        filter_factory=filter_factory,
    )
    execution = run_random(
        system, 700, seed=0,
        weights={
            "vs_createview": 0.125,
            "dvs_register": 2.0,
            "dvs_garbage_collect": 2.0,
        },
    )
    return execution, procs


class TestLiteralAlgorithmFailsLemma58:
    def test_counterexample(self):
        execution, procs = falsifying_run(LiteralSafeVsToDvs)
        checker = dvs_refinement_checker(
            procs, V0, UNIVERSE, literal_safe=True
        )
        with pytest.raises(
            RefinementFailure, match=r"named fragments \[dvs_safe\("
        ) as excinfo:
            checker.check_execution(execution)
        assert excinfo.value.step.action.name == "dvs_safe"

    def test_minimal_scripted_counterexample(self):
        """Hand-built: p2 multicasts m in v0; the VS layer delivers m to
        every filter and declares it VS-safe; p3's literal filter forwards
        DVS-SAFE while p1's copy still sits in msgs-from-vs -- at that
        point the DVS specification's SAFE precondition is false and no
        abstract fragment exists."""
        system, procs = build_closed_dvs_impl(
            V0, UNIVERSE[:3], budget=1,
            filter_factory=LiteralSafeVsToDvs,
        )
        s = system.initial_state()
        m = ("m", "p2", 0)

        def do(*actions):
            nonlocal s
            for action in actions:
                s = system.apply(s, action)

        do(act("dvs_gpsnd", m, "p2"))
        do(act("vs_gpsnd", m, "p2"))
        do(act("vs_order", m, "p2", V0.id))
        for r in ["p1", "p2", "p3"]:
            do(act("vs_gprcv", m, "p2", r))      # VS-level delivery
        do(act("dvs_gprcv", m, "p2", "p3"))       # only p3's client consumes
        do(act("vs_safe", m, "p2", "p3"))         # VS-safe reaches p3
        # p3's literal filter can now emit DVS-SAFE...
        assert system.is_enabled(s, act("dvs_safe", m, "p2", "p3"))
        from repro.ioa.execution import Execution, Step

        before = s
        after = system.apply(s, act("dvs_safe", m, "p2", "p3"))
        step = Step(before, act("dvs_safe", m, "p2", "p3"), after)
        checker = dvs_refinement_checker(
            procs, V0, UNIVERSE[:3], literal_safe=True
        )
        # ...but p1's client never received m: Lemma 5.8's fragment for
        # the step, DVS-SAFE itself, is not enabled.
        with pytest.raises(
            RefinementFailure, match=r"named fragments \[dvs_safe\("
        ):
            checker.check_step(step)


class TestRepairedAlgorithmPasses:
    def test_same_adversary_now_refines(self):
        execution, procs = falsifying_run(VsToDvs)
        checker = dvs_refinement_checker(procs, V0, UNIVERSE)
        checker.check_execution(execution)

    def test_repaired_filter_withholds_early_safe(self):
        """In the scripted scenario the repaired filter refuses the safe
        indication until *every* client has acknowledged."""
        system, procs = build_closed_dvs_impl(V0, UNIVERSE[:3], budget=1)
        s = system.initial_state()
        m = ("m", "p2", 0)

        def do(*actions):
            nonlocal s
            for action in actions:
                s = system.apply(s, action)

        do(act("dvs_gpsnd", m, "p2"))
        do(act("vs_gpsnd", m, "p2"))
        do(act("vs_order", m, "p2", V0.id))
        for r in ["p1", "p2", "p3"]:
            do(act("vs_gprcv", m, "p2", r))
        do(act("dvs_gprcv", m, "p2", "p3"))
        do(act("vs_safe", m, "p2", "p3"))
        assert not system.is_enabled(s, act("dvs_safe", m, "p2", "p3"))

        # Let every client consume and the acks circulate.
        from repro.dvs.vs_to_dvs import AckMsg

        do(act("dvs_gprcv", m, "p2", "p1"))
        do(act("dvs_gprcv", m, "p2", "p2"))
        for sender in ["p1", "p2", "p3"]:
            do(act("vs_gpsnd", AckMsg(1), sender))
            do(act("vs_order", AckMsg(1), sender, V0.id))
            do(act("vs_gprcv", AckMsg(1), sender, "p3"))
        assert system.is_enabled(s, act("dvs_safe", m, "p2", "p3"))
        # And the released indication refines the specification.
        checker = dvs_refinement_checker(procs, V0, UNIVERSE[:3])
        from repro.ioa.execution import Step

        after = system.apply(s, act("dvs_safe", m, "p2", "p3"))
        checker.check_step(Step(s, act("dvs_safe", m, "p2", "p3"), after))
