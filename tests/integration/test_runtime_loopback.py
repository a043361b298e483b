"""Acceptance: the live stack on real TCP loopback sockets.

The headline scenario mirrors the paper's service story end to end, on
actual sockets rather than the simulator: a 3-node cluster totally
orders at least 200 client requests with the online safety monitor
armed on the shared action log -- including a node crash, a view
reformation by the surviving majority, and an amnesiac rejoin with
state transfer -- and finishes with zero safety violations.
"""

import time
from collections import Counter

import pytest

from repro.apps.kv_store import KvReplica
from repro.gcs.to_layer import NORMAL
from repro.ioa.acceptor import RESTART
from repro.obs import Observability
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
WAIT = 60.0


class WireCensus(Observability):
    """Also counts every frame the nodes send, by message type (the
    tracer itself only keeps frames that carry a label)."""

    def __init__(self):
        super().__init__()
        self.sent = Counter()

    def wire_event(self, stage, pid, peer, msg, t):
        if stage == "wire_send":
            self.sent[type(msg).__name__] += 1
        super().wire_event(stage, pid, peer, msg, t)


@pytest.fixture
def cluster():
    c = RuntimeCluster(
        PIDS,
        app_factory=lambda node: KvReplica(node.to),
        hb_interval=0.05,
        hb_timeout=0.25,
        obs=WireCensus(),
    )
    with c:
        yield c


def drive(cluster, pids, start, count):
    """Issue ``count`` puts round-robin over ``pids``; payloads are
    globally unique so the monitor's no-duplication check has teeth."""
    for i in range(start, start + count):
        pid = pids[i % len(pids)]
        cluster.call_app(
            pid,
            lambda app, i=i: app.put("key-{0}".format(i % 16),
                                     "value-{0}".format(i)),
        )
    return start + count


def wait_applied(cluster, pids, total, timeout=WAIT):
    cluster.wait_until(
        lambda: all(
            cluster.app(pid).log_length >= total for pid in pids
        ),
        timeout=timeout,
        what="{0} commands applied on {1}".format(total, sorted(pids)),
    )


def test_repeating_a_command_is_not_a_duplication_violation(cluster):
    """Oracle soundness (ROADMAP 4.iv): the same command twice from one
    node is two broadcasts, each delivered once everywhere."""
    cluster.wait_formation(timeout=WAIT)
    for _ in range(2):
        cluster.call_app("n1", lambda app: app.put("k", "v"))
    wait_applied(cluster, PIDS, 2)
    assert cluster.log.at("brcv", "n2") == [(("put", "k", "v"), "n1")] * 2
    cluster.check()
    assert cluster.violations == []


def test_200_requests_with_crash_and_rejoin(cluster):
    cluster.wait_formation(timeout=WAIT)

    sent = drive(cluster, PIDS, 0, 120)
    wait_applied(cluster, PIDS, sent)

    # Crash one node mid-run; the surviving majority must reform a
    # primary view and keep serving.
    cluster.kill("n3")
    survivors = ["n1", "n2"]
    cluster.wait_formation(survivors, timeout=WAIT)
    sent = drive(cluster, survivors, sent, 60)
    wait_applied(cluster, survivors, sent)

    # Amnesiac rejoin: fresh process, same id, new port.  It must be
    # readmitted and rebuild all prior state from the total order.
    cluster.restart("n3")
    cluster.wait_formation(PIDS, timeout=WAIT)
    sent = drive(cluster, PIDS, sent, 20)
    assert sent >= 200
    wait_applied(cluster, PIDS, sent)

    # Zero violations from the online monitor, no layer errors.
    cluster.check()
    assert cluster.violations == []

    # Replica consistency: every node (including the restarted one)
    # applied the same 200 commands in the same order.
    logs = {
        pid: cluster.call_app(pid, lambda app: app.command_log())
        for pid in PIDS
    }
    assert all(len(log) == sent for log in logs.values())
    assert logs["n1"] == logs["n2"] == logs["n3"]

    # And the materialized KV states agree.
    snaps = {
        pid: cluster.call_app(pid, lambda app: app.snapshot())
        for pid in PIDS
    }
    assert snaps["n1"] == snaps["n2"] == snaps["n3"]
    assert len(snaps["n1"]) == 16

    # Observability rides along: every span stitched across crash,
    # reformation and rejoin still finds its to_label root.
    trace = cluster.trace_snapshot()
    assert trace["orphans"] == []
    assert trace["summary"]["events_dropped"] == 0
    assert trace["summary"]["deliveries"] > 0
    # The crash/reformation/rejoin produced observable view spans.
    assert len(trace["views"]) >= 2

    # The tower reads no VS-level stability, so none crossed the wire
    # (formation, crash, reformation and rejoin included).
    sent_frames = cluster.obs.sent
    assert sent_frames["Ordered"] > 0 and sent_frames["Install"] > 0
    assert sent_frames["Ack"] == 0 and sent_frames["SafeNote"] == 0


def test_formation_and_steady_traffic(cluster):
    cluster.wait_formation(timeout=WAIT)
    for pid in PIDS:
        view = cluster.call_node(pid, lambda n: n.to.current)
        assert view is not None and view.set == frozenset(PIDS)
    sent = drive(cluster, PIDS, 0, 30)
    wait_applied(cluster, PIDS, sent)
    cluster.check()
    # Total order: all replicas saw the identical sequence.
    logs = [
        cluster.call_app(pid, lambda app: app.command_log())
        for pid in PIDS
    ]
    assert logs[0] == logs[1] == logs[2]


def test_minority_cannot_form_but_majority_can(cluster):
    cluster.wait_formation(timeout=WAIT)
    cluster.kill("n2")
    cluster.kill("n3")
    # A single node out of three is not a quorum of the established
    # view: it must not form a primary view on its own.
    with pytest.raises(TimeoutError):
        cluster.wait_formation(["n1"], timeout=2.0)
    cluster.restart("n2")
    cluster.wait_formation(["n1", "n2"], timeout=WAIT)
    cluster.check()


# -- Formation on evidence, not on a timer ------------------------------------


def track(nodes):
    """An ``app_factory`` that keeps each node's newest incarnation."""
    def factory(node):
        nodes[node.pid] = node
        return node

    return factory


def formed_past_g0(nodes):
    """``wait_until`` predicate: TO ``NORMAL`` at every node in one view
    of epoch >= 1 over all of ``PIDS`` (the pre-agreed ``g0`` does not
    count)."""
    def formed():
        views = {nodes[pid].to.current for pid in PIDS}
        if len(views) != 1 or any(
            nodes[pid].to.status != NORMAL for pid in PIDS
        ):
            return False
        (view,) = views
        return (
            view is not None and view.id.epoch >= 1
            and view.set == frozenset(PIDS)
        )

    return formed


def test_a_booting_group_forms_well_inside_one_grace():
    """At ``hb_timeout=1.0`` a full-grace wait takes at least 1.0 s; the
    estimator reports as soon as every peer is heard instead."""
    nodes = {}
    cluster = RuntimeCluster(PIDS, app_factory=track(nodes), hb_timeout=1.0)
    started = time.monotonic()
    with cluster:
        cluster.wait_until(formed_past_g0(nodes), timeout=WAIT,
                           poll=0.005, what="g1 over all three")
        elapsed = time.monotonic() - started
        cluster.check()
    assert elapsed < 0.5, elapsed


def test_a_booting_group_forms_inside_one_heartbeat_interval():
    """At ``hb_interval=0.5`` a report made on the tick waits up to one
    0.5 s interval after the last member is heard; made on that
    member's first frame, it does not wait for the tick at all."""
    nodes = {}
    cluster = RuntimeCluster(
        PIDS, app_factory=track(nodes), hb_interval=0.5, hb_timeout=2.0,
    )
    started = time.monotonic()
    with cluster:
        cluster.wait_until(formed_past_g0(nodes), timeout=WAIT,
                           poll=0.005, what="g1 over all three")
        elapsed = time.monotonic() - started
        cluster.check()
    assert elapsed < 0.2, elapsed


def test_a_restarted_node_rejoins_in_one_view():
    """Kill n1 and wait 2.5 s, long enough for n2's and n3's links to it
    to back off to ``retry_max``; then restart n1.  Its handshake dials
    them back at once, so it hears both well inside its grace: it
    installs exactly one view, over all three, within 0.5 s -- not a
    singleton that re-mints ``g1@n1`` (ROADMAP item 4(gamma))."""
    nodes = {}
    cluster = RuntimeCluster(PIDS, app_factory=track(nodes))
    with cluster:
        cluster.wait_until(formed_past_g0(nodes), timeout=WAIT,
                           what="g1 over all three")
        cluster.bcast("n2", ("a", 0))
        cluster.kill("n1")
        time.sleep(2.5)
        cluster.wait_formation(["n2", "n3"], timeout=WAIT)
        cluster.restart("n1")
        cluster.wait_until(formed_past_g0(nodes), timeout=WAIT,
                           what="n1 back in a view over all three")
        time.sleep(0.5)  # room for a second view, were one coming
        cluster.check()
    log = cluster.log
    (restart,) = [
        i for i, action in enumerate(log.actions)
        if action.name == RESTART and action.params == ("n1",)
    ]
    installs = [
        (t, action.params[0])
        for t, action in zip(log.times[restart:], log.actions[restart:])
        if action.name == "vs_newview" and action.params[-1] == "n1"
    ]
    assert len(installs) == 1, [str(view.id) for _, view in installs]
    ((installed_at, view),) = installs
    assert view.set == frozenset(PIDS)
    assert installed_at - log.times[restart] < 0.5
    assert cluster.monitor.rejections() == {"VS": None, "DVS": None, "TO": None}
