"""Acceptance: live chaos + trace-driven deterministic replay.

The issue's headline criteria, end to end on real loopback sockets:

1. the *same* NemesisPlan (partition + latency + loss) runs against
   both the deterministic simulator and a live 3-node TCP cluster with
   zero SafetyMonitor violations;
2. the recorded live trace replays deterministically -- two replays
   produce identical delivery orders and digests;
3. a deliberately injected violation in a live run (the ablated
   no-majority DVS layer under a clean partition) shrinks via ddmin to
   a minimal simulator-checked counterexample that still trips the
   same safety property.
"""

import importlib.util
import inspect

import pytest

from repro.checking.replay import (
    check_replay_determinism,
    replay_trace,
    shrink_replay,
)
from repro.dvs.ablation import NoMajorityDvsLayer
from repro.faults.harness import run_chaos
from repro.faults.nemesis import NemesisPlan
from repro.obs.record import ReplayTrace
from repro.runtime.chaos import run_live_chaos
from repro.runtime.cluster import RuntimeCluster

from tests.mutants import BY_NAME, mutate

PIDS = ["n1", "n2", "n3"]


def _storm_plan(start, length, step):
    """Partition + latency + loss over ``[start, start+length]``: the
    issue's headline plan, parameterized so the *same shape* runs in
    simulator time units and in wall-clock seconds."""
    mid = start + length / 2.0
    return NemesisPlan([
        (start, "delay", (None, step * 0.5, 0.1, step, length)),
        (start, "drop", (None, 0.05, length)),
        (mid - length / 4.0, "partition", ((("n1", "n2"), ("n3",)),)),
        (mid + length / 4.0, "heal", ()),
    ])


class TestSamePlanBothWorlds:
    def test_simulator_run_is_clean(self):
        plan = _storm_plan(start=20.0, length=120.0, step=2.0)
        result = run_chaos(PIDS, plan=plan, duration=240.0,
                           broadcast_interval=8.0, seed=11)
        assert result.ok
        assert result.violation is None

    def test_live_run_is_clean_and_replays_deterministically(self):
        plan = _storm_plan(start=1.0, length=4.0, step=0.05)
        result = run_live_chaos(
            PIDS, plan=plan, duration=7.0, broadcast_interval=0.2,
            settle_time=2.0, fault_seed=11,
        )
        assert result.violations == []
        assert result.stats["faultnet"]["delayed_sends"] > 0

        trace = result.trace
        assert isinstance(trace, ReplayTrace)
        assert len(trace) > 0
        first, second = check_replay_determinism(trace)
        assert first.digest == second.digest
        assert first.deliveries == second.deliveries
        # Replay sees the same safe execution the live monitor saw.
        assert first.violations == []
        assert first.stats["broadcasts"] == result.stats["broadcasts"]
        assert first.stats["deliveries"] == result.stats["deliveries"]


class TestSequencerRunsReplay:
    def test_a_recorded_run_with_runs_replays_deterministically(self):
        """Each flush of a sequencer run is a recorded ``timer`` event,
        so a live run whose sequencer sent ``OrderedRun`` frames replays
        to the same deliveries, twice over."""
        with RuntimeCluster(PIDS, record=True) as cluster:
            cluster.wait_formation(timeout=30.0)

            def burst(node, tag):
                for i in range(6):
                    node.tower.bcast((tag, i), "to")

            # n1 = min(view) is the sequencer: its own burst is one run;
            # n2's arrives as Data frames, often several per read.
            cluster.call_node("n1", lambda node: burst(node, "n1"))
            cluster.call_node("n2", lambda node: burst(node, "n2"))
            cluster.wait_until(
                lambda: all(
                    len(cluster.log.at("brcv", pid)) >= 12 for pid in PIDS
                ),
                timeout=30.0, what="both bursts everywhere",
            )
            cluster.check()
            live = {pid: cluster.log.at("brcv", pid) for pid in PIDS}
            trace = cluster.snapshot_trace()
        kinds = {(e.kind, type(e.data[-1]).__name__) for e in trace.events}
        assert ("timer", "str") in kinds and ("recv", "OrderedRun") in kinds
        first, second = check_replay_determinism(trace)
        assert first.deliveries == second.deliveries == live
        assert first.violations == []
        assert first.verdicts == {"DVS": None, "TO": None}  # accepted


class TestMarshallingUnderAsyncioDebug:
    """The dynamic twin of DVS013's loop-API half (DESIGN.md section 8's
    kill matrix): in asyncio's debug mode the loop itself refuses a
    non-threadsafe call made from another thread, so a facade method
    that stops marshalling fails the run instead of racing silently."""

    def _short_run(self):
        return run_live_chaos(
            PIDS, duration=1.0, broadcast_interval=0.1, settle_time=0.5,
        )

    def test_debug_loop_accepts_the_tree_and_rejects_unmarshalled_bcast(
        self, tmp_path, monkeypatch
    ):
        # asyncio reads the variable when a loop is created, so setting
        # it here covers the loop RuntimeCluster.start() makes.
        monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
        result = self._short_run()
        assert result.violations == []
        assert result.stats["deliveries"] > 0

        # The registry mutant the linter's DVS012 test applies.
        with open(inspect.getsourcefile(RuntimeCluster),
                  encoding="utf-8") as handle:
            source = handle.read()
        mutant_path = tmp_path / "cluster_mutant.py"
        mutant_path.write_text(mutate(BY_NAME["bcast_wrap"], source))
        spec = importlib.util.spec_from_file_location(
            "cluster_mutant", mutant_path
        )
        mutant = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mutant)
        monkeypatch.setattr(
            "repro.runtime.chaos.RuntimeCluster", mutant.RuntimeCluster
        )
        with pytest.raises(RuntimeError, match="Non-thread-safe operation"):
            self._short_run()


class TestPartitionRuleOnTcp:
    def test_listing_one_group_isolates_it(self):
        # The simulator's rule (one fault plane): processes named in no
        # group share one extra component, so ``[["n3"]]`` cuts n3 off
        # from n1 and n2 -- on sockets exactly as on the event queue.
        plan = NemesisPlan([(1.0, "partition", ((("n3",),),))])
        with RuntimeCluster(PIDS, nemesis=plan) as cluster:
            cluster.wait_formation(pids=["n1", "n2"], timeout=15.0)
            assert cluster.faultnet.stats()["blocked_recvs"] > 0
            assert cluster.violations == []


class TestInjectedViolationShrinks:
    @pytest.fixture(scope="class")
    def broken_run(self):
        # Five nodes, clean partition into 3+2, and a DVS layer whose
        # majority check is ablated away: both sides form views, and
        # Invariant 4.1, DVS-CREATEVIEW's precondition, must trip.
        pids = ["n1", "n2", "n3", "n4", "n5"]
        plan = NemesisPlan([
            (1.0, "partition", ((("n1", "n2", "n3"), ("n4", "n5")),)),
        ])
        return run_live_chaos(
            pids, plan=plan, duration=6.0, broadcast_interval=0.2,
            settle_time=2.0, dvs_factory=NoMajorityDvsLayer,
        )

    def test_live_violation_reproduces_in_replay(self, broken_run):
        assert broken_run.violations, "ablated layer failed to misbehave"
        prop = broken_run.violations[0].prop
        result = replay_trace(broken_run.trace)
        assert any(v.prop == prop for v in result.violations)

    def test_ddmin_yields_minimal_counterexample(self, broken_run):
        prop = broken_run.violations[0].prop
        minimal, probes, result = shrink_replay(
            broken_run.trace, max_probes=400, prop=prop,
        )
        assert any(v.prop == prop for v in result.violations)
        assert len(minimal) < len(broken_run.trace)
        # 1-minimality: removing any single remaining event loses the
        # violation (that is ddmin's contract; spot-check a few).
        for index in range(min(len(minimal), 3)):
            weaker = replay_trace(minimal.without([index]))
            assert not any(v.prop == prop for v in weaker.violations)
