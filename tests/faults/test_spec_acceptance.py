"""The specifications as the oracle of chaos runs (ROADMAP items 8, 16).

``run_chaos``'s monitor steps the executable specifications of VS, DVS
and TO online (``ChaosResult.monitor``); one oracle, no end-of-run walk.
Part (a) pins the faults the walk once found in lossy runs and that the
sender count on ``Data`` closed: a frame lost inside a stable view
(4(beta)) and a duplicated ``Data`` (4(delta)).  These one-op recipes
come first: they are the cheapest tests that name the fault.  Part (b)
pins what must be accepted, and that each online rejection is the one
the reference walks (``accept_*``) give on the same log.  A lost ``Data`` now
stalls its sender until the next view (a liveness matter, item 4(ii))
instead of leaving a gap in its FIFO order.  What is still found and
not fixed -- an amnesiac VS re-mints a view id (4(gamma)) -- is an
``xfail(strict=True)``: the change that repairs it must delete its mark.
"""

import time

import pytest

from repro.dvs.ablation import NoMajorityDvsLayer
from repro.dvs.refinement import accept_dvs
from repro.faults import (
    FaultOp,
    NemesisPlan,
    bridge_topology,
    compose,
    crash_recovery_storm,
    flaky_link_windows,
    partition_churn,
    run_chaos,
)
from repro.gcs.cluster import Cluster
from repro.runtime.cluster import RuntimeCluster
from repro.to.refinement import accept_to
from repro.vs.spec import accept_vs

PROCS = ["p1", "p2", "p3", "p4", "p5"]
#: ``repro chaos``'s defaults: 240 time units, faults in [10, 190].
WINDOW = dict(start=10.0, duration=180.0)
ACCEPTED = {"VS": None, "DVS": None, "TO": None}
#: The reference walks, by the monitor's spec names.
REFERENCE = {"VS": accept_vs, "DVS": accept_dvs, "TO": accept_to}


def _chaos(family, seed, **run):
    builders = {
        "storm": lambda: crash_recovery_storm(PROCS, seed=seed, **WINDOW),
        "churn": lambda: partition_churn(PROCS, seed=seed, **WINDOW),
        "flaky": lambda: flaky_link_windows(PROCS, seed=seed, **WINDOW),
        "bridge": lambda: bridge_topology(
            PROCS[:2], PROCS[2:], PROCS[0], at=10.0, duration=180.0
        ),
    }
    if family == "mixed":
        plan = compose(*(build() for build in builders.values()))
    else:
        plan = builders[family]()
    return run_chaos(PROCS, seed=seed, plan=plan, duration=240.0, **run)


def reference_rejections(log, initial_view):
    """What the reference walks say of ``log``, spec by spec."""
    return {name: walk(log, initial_view)[1]
            for name, walk in REFERENCE.items()}


# -- (a) what the walk found in lossy runs, closed by Data's count ------------


def _one_dropped_data_frame():
    """Three nodes, quiet and formed; one ``drop`` op covers exactly
    c's first multicast on its way to the sequencer a.  c's second
    multicast, after the window, is past the gap: a drops it, so
    nothing from c is delivered in that view.  Returns the cluster."""
    plan = NemesisPlan([FaultOp(100.0, "drop", ((("c", "a"),), 1.0, 3.0))])
    cluster = Cluster(list("abc"), seed=1, nemesis=plan, monitor=True)
    cluster.start()
    cluster.run(100.5)
    cluster.bcast("c", ("m", 1))
    cluster.run(5.0)
    cluster.bcast("c", ("m", 2))
    cluster.settle(max_time=300)
    drops = [d for _, kind, d in cluster.net.log if kind == "fault_drop"]
    assert len(drops) == 1 and type(drops[0][2]).__name__ == "Data"
    views = {a.params[0] for a in cluster.log.actions
             if a.name == "vs_newview"}
    assert len(views) == 1  # formed once, no later view to unstall c
    assert cluster.delivered("a") == []
    return cluster


class TestLossIsATraceInclusionViolation:
    """The recipe that showed 4(beta)'s safety face: it is now a stall."""

    def test_one_dropped_data_frame_is_a_trace_of_vs(self):
        assert _one_dropped_data_frame().monitor.rejections()["VS"] is None

    def test_one_dropped_data_frame_is_a_trace_of_dvs(self):
        assert _one_dropped_data_frame().monitor.rejections()["DVS"] is None

    def test_to_accepts_the_gap(self):
        assert _one_dropped_data_frame().monitor.rejections()["TO"] is None

    def test_the_sequencer_counts_the_data_past_the_gap(self):
        """The stall is counted where it happens: the sequencer a
        refused c's second ``Data``."""
        stacks = _one_dropped_data_frame().stacks
        assert {pid: stacks[pid].data_refused for pid in "abc"} == {
            "a": 1, "b": 0, "c": 0}

    def test_flaky_4_is_a_trace_of_dvs(self):
        """The seed that showed it (t=24.0, p3 -> p1)."""
        result = _chaos("flaky", 4)
        assert result.ok, str(result.violation)
        assert result.monitor.rejections() == ACCEPTED


def _one_duplicated_data_frame():
    """One ``duplicate`` op over c -> a copies c's first multicast on its
    way to the sequencer a.  a orders the first copy and drops the
    second (its count is no longer the next), so every member delivers
    ``(g1@a#1@c, ('m', 1))`` once.  Returns the cluster."""
    plan = NemesisPlan(
        [FaultOp(100.0, "duplicate", ((("c", "a"),), 1.0, 0.5, 3.0))]
    )
    cluster = Cluster(list("abc"), seed=1, nemesis=plan, monitor=True)
    cluster.start()
    cluster.run(100.5)
    cluster.bcast("c", ("m", 1))
    cluster.run(5.0)
    cluster.bcast("c", ("m", 2))
    cluster.settle(max_time=300)
    delivered = [m for m, _ in cluster.log.at("vs_gprcv", "a")
                 if isinstance(m, tuple) and m[1] == ("m", 1)]
    assert len(delivered) == 1
    assert cluster.delivered("a") == [(("m", 1), "c"), (("m", 2), "c")]
    return cluster


class TestDuplicationIsATraceInclusionViolation:
    """The recipe that showed 4(delta): the copy is dropped."""

    def test_one_duplicated_data_frame_is_a_trace_of_vs(self):
        assert _one_duplicated_data_frame().monitor.rejections()["VS"] is None

    def test_one_duplicated_data_frame_is_a_trace_of_dvs(self):
        rejections = _one_duplicated_data_frame().monitor.rejections()
        assert rejections["DVS"] is None

    def test_to_accepts_the_duplicate(self):
        assert _one_duplicated_data_frame().monitor.rejections()["TO"] is None

    def test_the_sequencer_counts_the_copy(self):
        stacks = _one_duplicated_data_frame().stacks
        assert {pid: stacks[pid].data_refused for pid in "abc"} == {
            "a": 1, "b": 0, "c": 0}


# -- (b) what must be accepted, and each rejection the reference's --------------


class TestAccepted:
    def test_storm_5_is_a_trace_of_vs_dvs_and_to(self):
        result = _chaos("storm", 5)
        assert result.ok
        assert result.monitor.rejections() == ACCEPTED

    def test_churn_3_is_a_trace_of_vs_dvs_and_to_and_the_walk_is_cheap(self):
        """2,498 actions through three specs in well under half a second:
        the walk is in place (no ``state.copy()`` per action)."""
        result = _chaos("churn", 3, keep_cluster=True)
        assert result.ok
        assert result.monitor.rejections() == ACCEPTED
        log = result.cluster.log
        assert len(log) > 2000
        started = time.perf_counter()
        assert reference_rejections(log, result.cluster.initial_view) \
            == ACCEPTED
        assert time.perf_counter() - started < 0.5

    def test_mixed_2_is_a_trace_of_dvs_and_to(self):
        """``mixed`` includes loss windows; since ``Data`` carries its
        sender's count, VS accepts it too."""
        result = _chaos("mixed", 2)
        assert result.ok
        assert result.monitor.rejections() == ACCEPTED


class TestBrokenStackRejected:
    def test_no_majority_churn_0_rejected_no_later_than_the_monitor(self):
        """The monitor *is* the acceptor, stepped online: the rejection
        at #153, the monitor's last logged action."""
        result = _chaos("churn", 0, dvs_factory=NoMajorityDvsLayer)
        assert result.violation.prop == "dvs"
        rejections = result.monitor.rejections()
        rejection = rejections["DVS"]
        assert rejection == result.violation.rejection
        assert rejection.index == 153 == len(result.violation.actions) - 1
        assert rejection.action.name == "dvs_newview"
        assert "dvs_createview" in rejection.reason
        assert rejections["VS"] is None and rejections["TO"] is None

    @pytest.mark.parametrize("family", ["churn", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_online_violation_is_the_end_of_run_rejection(
        self, family, seed
    ):
        """Differential: each spec's online rejection is the reference
        walk's on the same (stopped) log, spec by spec, to the index."""
        result = _chaos(family, seed, dvs_factory=NoMajorityDvsLayer,
                        keep_cluster=True)
        online = result.monitor.rejections()
        assert online == reference_rejections(
            result.cluster.log, result.cluster.initial_view
        )
        assert online["DVS"] == result.violation.rejection
        assert str(online["DVS"]) == result.violation.summary()


@pytest.fixture(scope="module")
def isolated_restart_verdicts():
    """n1 leads ``g1@n1{n1,n2}`` after n3 dies; then everyone dies and a
    fresh n1 comes back alone and installs ``g1@n1{n1}``.  The live
    cluster's monitor flags it (VS, online); DVS and TO hold."""
    cluster = RuntimeCluster(
        ["n1", "n2", "n3"], hb_interval=0.05, hb_timeout=0.25
    )
    with cluster:
        cluster.wait_formation()
        cluster.bcast("n2", ("a", 0))
        cluster.kill("n3")
        cluster.wait_formation(["n1", "n2"])
        cluster.kill("n2").kill("n1").restart("n1")
        cluster.wait_until(
            lambda: any(
                a.name == "vs_newview" and a.params[0].set == {"n1"}
                for a in cluster.log.actions
            ),
            what="the fresh n1's singleton view",
        )
    assert {v.prop for v in cluster.violations} <= {"vs"}
    return cluster.monitor.rejections()


class TestAmnesiacVsRemintsAViewId:
    def test_dvs_and_to_accept(self, isolated_restart_verdicts):
        """They never see the singleton (it is not primary)."""
        assert isolated_restart_verdicts["DVS"] is None
        assert isolated_restart_verdicts["TO"] is None

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 4: a fresh incarnation restarts its epoch "
        "counter, so alone it re-mints g1@n1 -- one VS view id on two views",
    )
    def test_live_restart_in_isolation_is_a_trace_of_vs(
        self, isolated_restart_verdicts
    ):
        rejection = isolated_restart_verdicts["VS"]
        assert rejection is None, str(rejection)
