"""Failover on evidence, live: crashes are detected by refused redials,
a group split by one-sided suspicion re-forms, and no loop callback
stalls.

Each re-forming test ends with every live node ``NORMAL`` in one
common view over all of them, within ``2 * hb_timeout`` of the heal or
restart that makes a common view possible (ROADMAP item 4(alpha)).
"""

import gc
import logging
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.apps.kv_store import KvReplica
from repro.faults.nemesis import NemesisPlan
from repro.gcs.to_layer import NORMAL
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
WAIT = 30.0
# The tree this process imports, so a ``serve`` child runs the same code.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def track(nodes):
    """An ``app_factory`` that keeps each node's newest incarnation."""
    def factory(node):
        nodes[node.pid] = node
        return node

    return factory


def one_view(nodes, pids):
    """The view every one of ``pids`` is TO-``NORMAL`` in, if it is one
    view over exactly ``pids``; else ``None``."""
    views = {nodes[pid].to.current for pid in pids}
    if len(views) != 1 or any(nodes[pid].to.status != NORMAL for pid in pids):
        return None
    (view,) = views
    return view if view is not None and view.set == frozenset(pids) else None


def settle_time(cluster, nodes, pids, since):
    """Cluster-clock seconds from ``since`` until ``pids`` share one
    ``NORMAL`` view over exactly themselves."""
    settled = []

    def check():
        if one_view(nodes, pids) is not None:
            settled.append(cluster.clock.now)
            return True
        return False

    cluster.wait_until(check, timeout=WAIT, poll=0.005,
                       what="one view over {0}".format(pids))
    return settled[0] - since


# -- ROADMAP 4(alpha): one-sided suspicion re-forms -------------------------


def test_a_oneway_window_past_the_timeout_reforms_after_the_heal():
    """n1's frames to n2 are dropped for 1 s: n2 suspects n1 and forms
    {n2, n3} with n3, while n1, which still hears both, never suspects
    anyone.  After the heal no connectivity change is left to start a
    round; n1 sees the heartbeats name another view and re-runs its
    own."""
    hb_timeout = 0.25
    start, held = 0.5, 1.0
    plan = NemesisPlan([(start, "oneway", ((("n1", "n2"),), held))])
    nodes = {}
    cluster = RuntimeCluster(
        PIDS, app_factory=track(nodes), hb_timeout=hb_timeout, nemesis=plan,
    )
    with cluster:
        cluster.wait_formation(timeout=WAIT)
        cluster.wait_until(
            lambda: one_view(nodes, ["n2", "n3"]) is not None,
            timeout=WAIT, poll=0.005, what="the split {n2, n3}",
        )
        # n1 was never told: it still reports all three.
        assert cluster.call_node(
            "n1", lambda n: n._estimator.component()
        ) == set(PIDS)
        heal = start + held
        while cluster.clock.now < heal:
            time.sleep(0.005)
        took = settle_time(cluster, nodes, PIDS, heal)
        cluster.check()
    assert took <= 2 * hb_timeout, took


def test_a_loop_stall_between_back_to_back_kills_reforms_after_restart():
    """DESIGN.md section 8's DVS016 recipe: a 50 ms stall inside
    ``kill("n2")``, then ``kill("n3")``, then ``restart("n2")``, as soon
    as the group has formed.  It once wedged; with the dial-back at the
    handshake it re-forms when n1 expires n3, and on evidence as soon
    as n3's redial is refused."""
    hb_timeout = 0.25
    nodes = {}
    cluster = RuntimeCluster(
        PIDS, app_factory=track(nodes), hb_timeout=hb_timeout,
    )

    def stall_its_stop(node):
        stop = node.stop

        async def stalled():
            time.sleep(0.05)  # the stall: blocks the loop, on purpose
            await stop()

        node.stop = stalled

    with cluster:
        cluster.wait_formation(timeout=WAIT)
        cluster.call_node("n2", stall_its_stop)
        cluster.kill("n2")
        cluster.kill("n3")
        restarted = cluster.clock.now
        cluster.restart("n2")
        took = settle_time(cluster, nodes, ["n1", "n2"], restarted)
        cluster.check()
    assert took <= 2 * hb_timeout, took
    # On evidence: n3's refused redial, not its expiry, let n1 re-form.
    assert took < hb_timeout, took


# -- DVS016's dynamic killer: no callback blocks the loop -------------------


#: Longest a loop callback may run in the short run below.  Clean runs
#: keep every callback under 5 ms on an idle 2-vCPU host and under 30 ms
#: on a loaded one; a ``time.sleep(0.05)`` anywhere on the loop exceeds
#: it.
SLOW_CALLBACK_S = 0.045


class _SlowCallbacks(logging.Handler):
    """Collects asyncio's debug-mode "Executing ... took N seconds"."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.slow = []

    def emit(self, record):
        message = record.getMessage()
        if re.search(r"^Executing .* took [0-9.]+ seconds$", message):
            self.slow.append(message)


def test_no_callback_outlasts_the_slow_callback_bound(monkeypatch):
    """A short loopback run in asyncio's debug mode -- form, 20 puts, a
    crash, a re-formation, a rejoin -- in which the loop reports no
    callback slower than ``SLOW_CALLBACK_S``.  The blocking calls DVS016
    looks for statically (``time.sleep`` in ``_kill_async``, say) show
    here as a callback that held the loop."""
    # asyncio reads the variable when a loop is created, so setting it
    # here covers the loop RuntimeCluster.start() makes.
    monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
    handler = _SlowCallbacks()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(handler)
    # A full collection walks every object the earlier tests left
    # alive (up to 0.15 s in the whole suite) and holds the GIL, so it
    # stalls the loop thread.  Freezing that heap keeps the bound about
    # this run's own callbacks.
    gc.collect()
    gc.freeze()
    try:
        cluster = RuntimeCluster(
            PIDS, app_factory=lambda node: KvReplica(node.to),
        )
        with cluster:
            loop = cluster._loop
            assert loop.get_debug()
            loop.slow_callback_duration = SLOW_CALLBACK_S
            cluster.wait_formation(timeout=WAIT)
            for i in range(20):
                cluster.call_app(
                    PIDS[i % 3],
                    lambda app, i=i: app.put("k{0}".format(i % 4), i),
                )
            cluster.kill("n3")
            cluster.wait_formation(["n1", "n2"], timeout=WAIT)
            cluster.restart("n3")
            cluster.wait_formation(timeout=WAIT)
            cluster.check()
    finally:
        gc.unfreeze()
        asyncio_log.removeHandler(handler)
    assert handler.slow == []


# -- A real SIGKILL ----------------------------------------------------------


class _Serve:
    """One ``repro serve --pid`` process on a fixed loopback port, its
    output lines read as they come, each with the monotonic time it was
    read."""

    def __init__(self, pid, ports):
        argv = [
            sys.executable, "-u", "-m", "repro", "serve", "--pid", pid,
            "--bind", "127.0.0.1:{0}".format(ports[pid]),
        ]
        for peer, port in sorted(ports.items()):
            if peer != pid:
                argv += ["--peer", "{0}=127.0.0.1:{1}".format(peer, port)]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=SRC), text=True,
        )
        self.lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((time.monotonic(), line.rstrip()))

    def wait_for(self, pattern, timeout=WAIT):
        """The time the first line matching ``pattern`` was read."""
        deadline = time.monotonic() + timeout
        seen = []
        while True:
            try:
                at, line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise AssertionError(
                    "no line matching {0!r}; read {1!r}".format(
                        pattern, seen)
                )
            seen.append(line)
            if re.search(pattern, line):
                return at

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(10)
        self.proc.stdout.close()


def _free_ports(count):
    probes = [socket.socket() for _ in range(count)]
    try:
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
def test_a_sigkilled_process_leaves_a_two_member_view_within_0_2_s():
    """Three ``serve --pid`` processes at the default ``hb_timeout``
    (0.25 s); SIGKILL the one holding the lowest pid, so the kernel, not
    the runtime, closes its sockets.  Both survivors print a view over
    the two of them within 0.2 s.

    The timeout cannot meet that bound: the dead peer was last heard at
    most one beacon (0.05 s) before the kill and expires more than
    ``hb_timeout`` after it, at least 0.2 s in.  Only the refused
    redial can."""
    ports = dict(zip(PIDS, _free_ports(3)))
    nodes = {pid: _Serve(pid, ports) for pid in PIDS}
    try:
        for pid in PIDS:
            nodes[pid].wait_for(
                r"primary view g[1-9][0-9]*@\S+ over \['n1', 'n2', 'n3'\]"
            )
        # Past the links' stable_after (1 s): a connection that died
        # younger redials after a backoff, not at once.
        time.sleep(1.2)
        killed = time.monotonic()
        nodes["n1"].proc.send_signal(signal.SIGKILL)
        for pid in ("n2", "n3"):
            seen = nodes[pid].wait_for(r"view \S+ over \['n2', 'n3'\]")
            assert seen - killed < 0.2, (pid, seen - killed)
    finally:
        for node in nodes.values():
            node.close()
