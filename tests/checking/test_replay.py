"""Deterministic replay on synthetic traces.

These tests drive :func:`repro.checking.replay.replay_trace` with
hand-built traces, pinning the dispatch semantics the ddmin shrinker
depends on (unknown pids skipped, layer errors recorded not raised,
restarts reset the monitor's view of a pid).  End-to-end replay of
*recorded* live runs lives in tests/integration/test_live_chaos.py.
"""

import pytest

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.checking.replay import (
    check_replay_determinism,
    replay_trace,
    shrink_replay,
)
from repro.dvs.ablation import (
    DVS_FACTORIES,
    NoMajorityDvsLayer,
    dvs_factory_name,
)
from repro.gcs.dvs_layer import DvsLayer
from repro.gcs.recorder import ActionLog
from repro.obs.record import ReplayTrace, TraceError, TraceEvent

PIDS = ("p1", "p2", "p3")
VIEW = View(ViewId(0, "p1"), frozenset(PIDS))


def _trace(events, dvs="normal"):
    return ReplayTrace(PIDS, VIEW, events, dvs=dvs, source="test")


def _starts(*pids):
    return [TraceEvent(0.0, pid, "start", (True,)) for pid in pids]


class TestDispatch:
    def test_empty_trace_replays_clean(self):
        result = replay_trace(_trace([]))
        assert result.ok
        assert result.stats["dispatched"] == 0
        assert result.errors == []

    def test_unknown_dvs_is_trace_error(self):
        with pytest.raises(TraceError, match="unknown dvs"):
            replay_trace(_trace([], dvs="experimental"))

    def test_events_without_a_tower_are_skipped(self):
        # The shrinker may remove p2's start; its other events must not
        # crash the candidate replay.
        events = _starts("p1") + [
            TraceEvent(0.1, "p2", "bcast", (("w", "p2", 0),)),
            TraceEvent(0.2, "p2", "timer", ("hb",)),
            TraceEvent(0.3, "p2", "stop"),
        ]
        result = replay_trace(_trace(events))
        assert result.stats["skipped"] == 3
        assert result.stats["dispatched"] == 1
        assert result.errors == []

    def test_nemesis_events_are_annotations(self):
        events = _starts(*PIDS) + [
            TraceEvent(0.5, "*", "nemesis", ("heal",)),
        ]
        result = replay_trace(_trace(events))
        assert result.stats["dispatched"] == 3
        assert result.stats["skipped"] == 0

    def test_stop_tears_down_the_tower(self):
        events = _starts("p1") + [
            TraceEvent(0.1, "p1", "stop"),
            TraceEvent(0.2, "p1", "bcast", (("w", "p1", 0),)),
        ]
        result = replay_trace(_trace(events))
        assert result.stats["skipped"] == 1  # the post-stop bcast

    def test_restart_resets_the_monitor_incarnation(self):
        events = (
            _starts("p1")
            + [TraceEvent(0.2, "p1", "bcast", (("w", "p1", 0),))]
            + [TraceEvent(0.5, "p1", "start", (False,))]
            + [TraceEvent(0.7, "p1", "bcast", (("w", "p1", 1),))]
        )
        result = replay_trace(_trace(events))
        assert result.ok
        assert result.errors == []

    def test_amnesiac_start_is_marked_in_the_log_even_after_a_stop(
        self, monkeypatch
    ):
        """The marker follows ``member=False`` (what the live host
        recorded), not "a tower was still up": a kill is a ``stop``
        first, and the rejoin after it is the common case."""
        events = (
            _starts("p1", "p2")
            + [TraceEvent(0.3, "p1", "stop")]
            + [TraceEvent(0.5, "p1", "start", (False,))]
        )
        seen = []
        record = ActionLog.record

        def spy(log, name, *params):
            seen.append((name, *params))
            record(log, name, *params)

        monkeypatch.setattr(ActionLog, "record", spy)
        result = replay_trace(_trace(events))
        assert seen == [("restart", "p1")]
        assert result.ok and result.stats["actions"] == 1
        assert result.monitor.rejections() == {"VS": None, "DVS": None, "TO": None}

    def test_layer_errors_are_recorded_not_raised(self):
        events = _starts("p1") + [
            TraceEvent(0.1, "p1", "recv", ("p2", object)),
        ]
        result = replay_trace(_trace(events))
        assert len(result.errors) == 1
        index, pid, kind, exc = result.errors[0]
        assert (index, pid, kind) == (1, "p1", "recv")
        assert isinstance(exc, Exception)


class TestDeterminism:
    def test_identical_digests_and_deliveries(self):
        events = _starts(*PIDS) + [
            TraceEvent(0.1, pid, "conn", (PIDS,)) for pid in PIDS
        ] + [
            TraceEvent(0.2 + i * 0.1, PIDS[i % 3], "bcast",
                       (("w", PIDS[i % 3], i),))
            for i in range(9)
        ]
        first, second = check_replay_determinism(_trace(events))
        assert first.digest == second.digest
        assert first.digest != ""
        assert first.stats == second.stats

    def test_different_inputs_different_digest(self):
        base = _starts(*PIDS)
        extra = base + [TraceEvent(0.2, "p1", "bcast", (("w", "p1", 0),))]
        assert (replay_trace(_trace(base)).digest
                != replay_trace(_trace(extra)).digest)


class TestShrink:
    def test_shrink_requires_a_failing_trace(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_replay(_trace(_starts(*PIDS)), max_probes=20)

    def test_shrink_candidates_are_replayable_traces(self):
        events = _starts(*PIDS) + [
            TraceEvent(0.2, "p1", "bcast", (("w", "p1", 0),)),
        ]
        full = _trace(events)
        seen = []

        def spy(candidate):
            seen.append(candidate)
            replay_trace(candidate)  # every candidate must replay cleanly
            return len(candidate) == len(full)  # pretend only full fails

        from repro.faults.shrink import shrink_plan

        minimal, probes = shrink_plan(full, spy, max_probes=10)
        assert seen and all(isinstance(c, ReplayTrace) for c in seen)
        assert minimal == full  # nothing removable under this oracle


class TestFactoryRegistry:
    def test_names_round_trip(self):
        for name, cls in DVS_FACTORIES.items():
            assert dvs_factory_name(cls) == name

    def test_none_is_normal(self):
        assert dvs_factory_name(None) == "normal"
        assert DVS_FACTORIES["normal"] is DvsLayer
        assert DVS_FACTORIES["nomajority"] is NoMajorityDvsLayer

    def test_unregistered_factory_rejected(self):
        with pytest.raises(ValueError, match="not replayable"):
            dvs_factory_name(object)

    def test_cluster_dvs_names_agree_with_registry(self):
        # One table: the name a live cluster writes into a trace header
        # is the name replay looks the factory up under.
        from repro.runtime.cluster import RuntimeCluster

        for name, cls in DVS_FACTORIES.items():
            cluster = RuntimeCluster(PIDS, dvs_factory=cls, record=True)
            trace = cluster.snapshot_trace()
            assert trace.dvs == name
            assert replay_trace(trace).ok
