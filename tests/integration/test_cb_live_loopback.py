"""Acceptance: the CB tier on real TCP loopback sockets.

Both ordering towers live on one DVS substrate per node; this exercises
the causal tower end to end -- presence boards converging over CB while
KV commands flow over TO, per-sender FIFO observed at every replica, a
crash/rejoin cycle repairing the board in the new view -- with the
online safety monitor (including the CB causal-order checks) armed on
the shared action log throughout.
"""

import time

import pytest

from repro.apps.kv_store import KvReplica
from repro.apps.presence import PresenceBoard
from repro.dvs.vs_to_dvs import AckMsg
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
WAIT = 60.0


@pytest.fixture
def cluster():
    c = RuntimeCluster(
        PIDS,
        app_factory=lambda node: KvReplica(node.to),
        cb_app_factory=lambda node: PresenceBoard(node.cb),
        hb_interval=0.05,
        hb_timeout=0.25,
    )
    with c:
        yield c


def cb_count(cluster, pid):
    """Deliveries at ``pid`` -- direct log read, loop-thread safe."""
    return sum(
        1 for a in cluster.log.actions
        if a.name == "cb_brcv" and a.params[2] == pid
    )


def wait_boards(cluster, pids, status, timeout=WAIT):
    cluster.wait_until(
        lambda: all(
            cluster.cb_app(p).status_of(q) == status
            for p in pids for q in pids
        ),
        timeout=timeout,
        what="boards showing {0!r} on {1}".format(status, sorted(pids)),
    )


def wait_all_safe(cluster, timeout=WAIT, poll=0.02):
    """Wait until every node has reported its whole client history
    safe, so no ack of it is still in flight."""
    def settled(node):
        return node.dvs.safe_ptr == len(node.dvs.client_history)

    for _ in range(int(timeout / poll)):
        if all(cluster.call_node(p, settled) for p in PIDS):
            return
        time.sleep(poll)
    raise TimeoutError("client histories not reported safe everywhere")


def test_presence_over_cb_with_crash_and_rejoin(cluster):
    cluster.wait_formation(timeout=WAIT)

    # Round 1: everyone announces; all boards converge over CB.
    for pid in PIDS:
        cluster.call_cb_app(pid, lambda app: app.typing(True))
        cluster.call_cb_app(pid, lambda app: app.announce("online"))
        cluster.call_cb_app(pid, lambda app: app.typing(False))
    wait_boards(cluster, PIDS, "online")
    cluster.wait_until(
        lambda: all(
            not cluster.cb_app(p).typing_now() for p in PIDS
        ),
        timeout=WAIT,
        what="typing indicators cleared",
    )

    # Per-sender FIFO: every replica saw each member's start-typing
    # strictly before its stop-typing.
    for p in PIDS:
        events = cluster.call_cb_app(p, lambda app: list(app.events))
        for q in PIDS:
            typed = [v for k, v, o in events if k == "typing" and o == q]
            assert typed == [True, False], (p, q, typed)

    # Interleave the tiers: KV writes over TO, status flips over CB.
    for i in range(12):
        pid = PIDS[i % 3]
        cluster.call_app(
            pid, lambda app, i=i: app.put("k{0}".format(i), i)
        )
        cluster.call_cb_app(
            pid, lambda app, i=i: app.announce("busy-{0}".format(i))
        )
    cluster.wait_until(
        lambda: all(
            cluster.app(p).log_length >= 12 for p in PIDS
        ),
        timeout=WAIT,
        what="12 KV commands applied",
    )
    cluster.wait_until(
        lambda: all(
            cluster.cb_app(p).status_of(q) is not None
            and str(cluster.cb_app(p).status_of(q)).startswith("busy-")
            for p in PIDS for q in PIDS
        ),
        timeout=WAIT,
        what="busy statuses propagated",
    )

    # Crash n3; survivors keep converging in the reformed view.
    cluster.kill("n3")
    cluster.wait_formation(["n1", "n2"], timeout=WAIT)
    for pid in ("n1", "n2"):
        cluster.call_cb_app(pid, lambda app: app.announce("paired"))
    wait_boards(cluster, ["n1", "n2"], "paired")

    # Rejoin: the view-scoped board repairs from fresh announcements.
    cluster.restart("n3")
    cluster.wait_formation(PIDS, timeout=WAIT)
    for pid in PIDS:
        cluster.call_cb_app(pid, lambda app: app.announce("back"))
    wait_boards(cluster, PIDS, "back")

    cluster.check()
    assert cluster.violations == []


def test_per_sender_fifo_under_load(cluster):
    cluster.wait_formation(timeout=WAIT)
    for i in range(30):
        cluster.call_cb_app(
            "n1", lambda app, i=i: app.announce("s{0}".format(i))
        )
    cluster.wait_until(
        lambda: all(
            cluster.cb_app(p).status_of("n1") == "s29" for p in PIDS
        ),
        timeout=WAIT,
        what="30 statuses from n1 settled everywhere",
    )
    for p in PIDS:
        events = cluster.call_cb_app(p, lambda app: list(app.events))
        from_n1 = [v for k, v, o in events if o == "n1"]
        assert from_n1 == ["s{0}".format(i) for i in range(30)]
    cluster.check()


def test_pure_cb_traffic_publishes_no_acks(cluster):
    """CB never reads ``dvs_safe``, so nobody acknowledges its
    deliveries: no ``AckMsg`` enters or leaves VS, nothing is reported
    safe.  TO's ``Summary`` exchange in the formed view is acked (TO
    reads it safe), so the check covers what is logged after that
    exchange has been reported safe everywhere."""
    cluster.wait_formation(timeout=WAIT)
    wait_all_safe(cluster)

    def mark(node):
        return (
            len(cluster.log.actions),
            node.dvs.ack_sent,
            len(node.dvs.client_history),
        )

    logged, acks, history = cluster.call_node("n2", mark)
    for i in range(30):
        cluster.call_cb_app(
            PIDS[i % 3], lambda app, i=i: app.announce("s{0}".format(i))
        )
    cluster.wait_until(
        lambda: all(cb_count(cluster, p) == 30 for p in PIDS),
        timeout=WAIT, what="30 statuses delivered everywhere",
    )
    actions = list(cluster.log.actions)[logged:]
    assert not any(
        a.name in ("vs_gpsnd", "vs_gprcv")
        and isinstance(a.params[0], AckMsg)
        for a in actions
    )
    assert not any(a.name == "dvs_safe" for a in actions)
    _, acks_after, history_after = cluster.call_node("n2", mark)
    assert (acks_after, history_after) == (acks, history + 30)
    cluster.check()
