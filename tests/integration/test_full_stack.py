"""Integration: the layered theorems compose.

The paper's two results chain: DVS-IMPL implements DVS (Theorem 5.9) and
TO-IMPL over DVS implements TO (Theorem 6.4), so TO over VS-TO-DVS over VS
implements TO.  We execute exactly that tower -- as IOA composition and as
the runtime stack -- and check the TO trace properties directly.
"""

import pytest

from repro.checking import check_to_trace_properties, random_view_pool
from repro.checking.harness import build_closed_full_stack
from repro.core import make_view
from repro.ioa import run_random


class TestIoaTower:
    @pytest.mark.parametrize("seed", range(6))
    def test_to_properties_on_full_tower(self, seed):
        universe = ["p1", "p2", "p3"]
        v0 = make_view(0, universe)
        pool = random_view_pool(universe, 3, seed=seed + 50, min_size=2)
        system, procs = build_closed_full_stack(
            v0, universe, view_pool=pool, budget=2
        )
        ex = run_random(
            system,
            5000,
            seed=seed,
            weights={"vs_createview": 0.03, "vs_newview": 0.5, "bcast": 1.0},
        )
        stats = check_to_trace_properties(ex.trace())
        assert stats["broadcasts"] == 6

    def test_quiet_tower_delivers_everything(self):
        universe = ["p1", "p2", "p3"]
        v0 = make_view(0, universe)
        system, procs = build_closed_full_stack(v0, universe, budget=2)
        ex = run_random(system, 9000, seed=0, weights={"bcast": 1.0})
        stats = check_to_trace_properties(ex.trace())
        assert stats["deliveries"] == 6 * 3

    def test_signature_is_to_only(self):
        universe = ["p1", "p2"]
        v0 = make_view(0, universe)
        system, procs = build_closed_full_stack(v0, universe)
        assert "vs_gprcv" in system.internals
        assert "dvs_gprcv" in system.internals
        ex = run_random(system, 500, seed=1)
        assert {a.name for a in ex.trace()} <= {"bcast", "brcv"}


class TestRuntimeTower:
    @pytest.mark.parametrize("seed", range(4))
    def test_runtime_stack_matches_ioa_guarantees(self, seed):
        from repro.gcs.cluster import Cluster

        # One seed runs with the effect-isolation checker armed: no
        # process mutates another's state but through the network.
        c = Cluster(
            list("abcd"), seed=seed, check_effects=(seed == 0)
        ).start()
        c.settle(max_time=60)
        for i in range(2):
            for pid in "abcd":
                c.bcast(pid, ("a", pid, i))
        c.run(25)
        c.partition({"a", "b", "c"}, {"d"})
        c.run(50)
        c.heal()
        c.settle(max_time=500)
        stats = check_to_trace_properties(c.log.actions)
        assert stats["broadcasts"] == 8
        # Everything settles after heal: all four deliver the full order.
        assert stats["max_delivered"] == 8
