"""The specification as the oracle of chaos runs (ROADMAP item 8).

``run_chaos`` walks its action log, once at end of run, through the
executable specifications (``ChaosResult.verdicts``, from
:func:`repro.checking.trace_props.spec_verdicts`).  Part (a) pins what
must be accepted, and that a broken stack's online violation is the
end-of-run rejection.  Part (b) pins what the acceptor *found* and is
not fixed yet: ROADMAP item 4(beta) -- a frame lost inside a stable view
is never repaired -- is a safety face too (sender FIFO with a gap is not
a trace of Figure 1 or Figure 2); 4(delta), a duplicated ``Data`` is
sequenced twice; and an amnesiac VS re-mints a view id.  Those are
``xfail(strict=True)``: the change that repairs one must delete its
marks.
"""

import time

import pytest

from repro.checking.trace_props import spec_verdicts
from repro.dvs.ablation import NoMajorityDvsLayer
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

PROCS = ["p1", "p2", "p3", "p4", "p5"]
#: ``repro chaos``'s defaults: 240 time units, faults in [10, 190].
WINDOW = dict(start=10.0, duration=180.0)


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


class TestAccepted:
    def test_storm_5_is_a_trace_of_vs_dvs_and_to(self):
        result = _chaos("storm", 5)
        assert result.ok
        assert result.verdicts == {"VS": None, "DVS": None, "TO": None}

    def test_churn_3_is_a_trace_of_vs_dvs_and_to_and_the_walk_is_cheap(self):
        """2,498 actions through three specs in well under half a second:
        the walk is in place (no ``state.copy()`` per action)."""
        result = _chaos("churn", 3, keep_cluster=True)
        assert result.ok
        assert result.verdicts == {"VS": None, "DVS": None, "TO": None}
        log = result.cluster.log
        assert len(log) > 2000
        started = time.perf_counter()
        spec_verdicts(log, result.cluster.initial_view, ("VS", "DVS", "TO"))
        assert time.perf_counter() - started < 0.5

    def test_mixed_2_is_a_trace_of_dvs_and_to(self):
        """``mixed`` includes loss windows, so VS is not asserted (see
        the xfails below); the two services the paper proves are."""
        result = _chaos("mixed", 2)
        assert result.ok
        assert result.verdicts["DVS"] is None
        assert result.verdicts["TO"] is None


class TestBrokenStackRejected:
    def test_no_majority_churn_0_rejected_no_later_than_the_monitor(self):
        """The monitor *is* the acceptor, stepped online: the same
        rejection, at #153, the monitor's last logged action."""
        result = _chaos("churn", 0, dvs_factory=NoMajorityDvsLayer)
        assert result.violation.prop == "dvs"
        rejection = result.verdicts["DVS"]
        assert rejection is not None
        assert rejection.index == 153 == len(result.violation.actions) - 1
        assert rejection.action.name == "dvs_newview"
        assert "dvs_createview" in rejection.reason
        assert result.verdicts["TO"] is None

    @pytest.mark.parametrize("family", ["churn", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_online_violation_is_the_end_of_run_rejection(
        self, family, seed
    ):
        result = _chaos(family, seed, dvs_factory=NoMajorityDvsLayer)
        online = result.violation.rejection
        assert online == result.verdicts[result.violation.prop.upper()]
        assert str(online) == result.violation.summary()


# -- (b) what the acceptor found; ROADMAP item 4 owns the repair -------------

ITEM_4_BETA = (
    "ROADMAP item 4(beta): VS has no in-view retransmission, so a lost "
    "Data frame leaves a gap in its sender's FIFO order"
)


def _one_dropped_data_frame():
    """Three nodes, quiet and formed; one ``drop`` op covers exactly
    c's first multicast on its way to the sequencer a; c's second
    multicast, after the window, is sequenced and delivered alone."""
    plan = NemesisPlan([FaultOp(100.0, "drop", ((("c", "a"),), 1.0, 3.0))])
    cluster = Cluster(list("abc"), seed=1, nemesis=plan).start()
    cluster.run(100.5)
    cluster.bcast("c", ("m", 1))
    cluster.run(5.0)
    cluster.bcast("c", ("m", 2))
    cluster.settle(max_time=300)
    drops = [d for _, kind, d in cluster.net.log if kind == "fault_drop"]
    assert len(drops) == 1 and type(drops[0][2]).__name__ == "Data"
    assert cluster.delivered("a") == [(("m", 2), "c")]
    return spec_verdicts(
        cluster.log, cluster.initial_view, ("VS", "DVS", "TO")
    )


class TestLossIsATraceInclusionViolation:
    def test_to_accepts_the_gap(self):
        """TO promises no per-sender FIFO, so it stays accepted -- which
        is why every older oracle called these runs clean."""
        assert _one_dropped_data_frame()["TO"] is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_BETA)
    def test_one_dropped_data_frame_is_a_trace_of_vs(self):
        assert _one_dropped_data_frame()["VS"] is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_BETA)
    def test_one_dropped_data_frame_is_a_trace_of_dvs(self):
        assert _one_dropped_data_frame()["DVS"] is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_BETA)
    def test_flaky_4_is_a_trace_of_dvs(self):
        """The seed that showed it (t=24.0, p3 -> p1)."""
        result = _chaos("flaky", 4)
        if not result.ok:  # the monitor sees nothing
            pytest.fail(str(result.violation))
        assert result.verdicts["DVS"] is None


ITEM_4_DELTA = (
    "ROADMAP item 4(delta): Data carries no per-sender sequence number, "
    "so the sequencer orders a duplicated Data twice"
)


def _one_duplicated_data_frame():
    """One ``duplicate`` op over c -> a copies c's first multicast on its
    way to the sequencer a.  a sequences both copies, so every member
    delivers ``(g1@a#1@c, ('m', 1))`` twice; TO's labels deduplicate."""
    plan = NemesisPlan(
        [FaultOp(100.0, "duplicate", ((("c", "a"),), 1.0, 0.5, 3.0))]
    )
    cluster = Cluster(list("abc"), seed=1, nemesis=plan).start()
    cluster.run(100.5)
    cluster.bcast("c", ("m", 1))
    cluster.run(5.0)
    cluster.bcast("c", ("m", 2))
    cluster.settle(max_time=300)
    copies = [m for m, _ in cluster.log.at("vs_gprcv", "a")
              if isinstance(m, tuple) and m[1] == ("m", 1)]
    assert len(copies) == 2
    assert cluster.delivered("a") == [(("m", 1), "c"), (("m", 2), "c")]
    return spec_verdicts(
        cluster.log, cluster.initial_view, ("VS", "DVS", "TO")
    )


class TestDuplicationIsATraceInclusionViolation:
    def test_to_accepts_the_duplicate(self):
        assert _one_duplicated_data_frame()["TO"] is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_DELTA)
    def test_one_duplicated_data_frame_is_a_trace_of_vs(self):
        rejection = _one_duplicated_data_frame()["VS"]
        assert rejection is None, str(rejection)  # today: #102

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_DELTA)
    def test_one_duplicated_data_frame_is_a_trace_of_dvs(self):
        rejection = _one_duplicated_data_frame()["DVS"]
        assert rejection is None, str(rejection)  # today: #103


@pytest.fixture(scope="module")
def isolated_restart_verdicts():
    """n1 leads ``g1@n1{n1,n2}`` after n3 dies; then everyone dies and a
    fresh n1 comes back alone and installs ``g1@n1{n1}``."""
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
    assert not cluster.violations
    return spec_verdicts(
        cluster.log, cluster.initial_view, ("VS", "DVS", "TO")
    )


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
