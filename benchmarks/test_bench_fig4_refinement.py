"""E4 -- Figure 4 (the refinement ℱ) and Theorem 5.9, mechanized.

Measures the cost of executing ℱ on a reachable DVS-IMPL state and of the
full step-correspondence check (Lemma 5.8's case analysis performed
mechanically per step).
"""

from repro.checking import build_closed_dvs_impl, random_view_pool
from repro.core import make_view
from repro.dvs import dvs_refinement_checker, refinement_f
from repro.ioa import run_random

UNIVERSE = ["p1", "p2", "p3", "p4"]
V0 = make_view(0, UNIVERSE[:3])
POOL = random_view_pool(UNIVERSE, 5, seed=11, min_size=2)
WEIGHTS = {
    "vs_createview": 0.2,
    "vs_newview": 1.0,
    "dvs_newview": 2.0,
    "dvs_register": 2.0,
    "dvs_garbage_collect": 1.5,
}


def _execution(steps=400, seed=0):
    system, procs = build_closed_dvs_impl(
        V0, UNIVERSE, view_pool=POOL, budget=2
    )
    return run_random(system, steps, seed=seed, weights=WEIGHTS), procs


def test_bench_refinement_mapping(benchmark):
    """One application of ℱ (Figure 4) to a mid-run state."""
    execution, procs = _execution()
    mapping = refinement_f(procs, V0, UNIVERSE)
    state = execution.final_state
    abstract = benchmark(lambda: mapping(state))
    assert V0 in abstract.created


def test_bench_theorem_5_9_check(benchmark):
    """Full step correspondence over a 400-step execution."""
    execution, procs = _execution()
    checker = dvs_refinement_checker(procs, V0, UNIVERSE)
    total = benchmark(lambda: checker.check_execution(execution))
    assert total >= 0


def test_bench_named_fragment_for_newview(benchmark):
    """Lemma 5.8's longest fragment (DVS-NEWVIEW of an uncreated view:
    CREATEVIEW + NEWVIEW), checked for one step."""
    execution, procs = _execution(seed=3)
    checker = dvs_refinement_checker(
        procs, V0, UNIVERSE, view_pool=POOL
    )
    target = None
    checker.check_initial(execution.initial_state)
    for step in execution.steps:
        if step.action.name == "dvs_newview":
            target = step
            break
    assert target is not None
    fragment = benchmark(lambda: checker.check_step(target))
    assert [a.name for a in fragment] == ["dvs_createview", "dvs_newview"]
