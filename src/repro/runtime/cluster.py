"""In-process loopback deployment: N live nodes on 127.0.0.1.

:class:`RuntimeCluster` is the live analogue of
:class:`repro.gcs.cluster.Cluster`: it spins up one
:class:`~repro.runtime.node.RuntimeNode` per process on a private
asyncio event loop (running in a background thread), all talking real
TCP through OS-assigned loopback ports, sharing one
:class:`~repro.gcs.recorder.ActionLog` with the online
:class:`~repro.faults.monitor.SafetyMonitor` armed on it.  The layers
record into that log only when something watches it -- the monitor,
``obs`` (its tracer) or the ``record=`` wiretap; an unwatched cluster
records nothing and ``log`` stays empty.  Tests,
benchmarks and examples drive it synchronously; every call is
marshalled onto the loop thread, and every wait carries a hard timeout
so an asyncio hang fails loudly instead of stalling the suite.

The monitor runs with ``fail_fast=False``: on live traffic a violation
is recorded (``cluster.violations``) rather than raised from inside a
socket callback, and :meth:`check` turns any accumulated violation or
layer error into an assertion.

``kill``/``restart`` model a crash plus an *amnesiac* rejoin: the
restarted node is a fresh process reusing the id (new port, empty
state); it re-enters through the membership protocol and rebuilds its
application state by replaying the confirmed total order.
"""

import asyncio
import threading
import time

from repro.core.views import make_view
from repro.dvs.ablation import dvs_factory_name
from repro.faults.monitor import SafetyMonitor
from repro.gcs.recorder import ActionLog
from repro.gcs.to_layer import NORMAL
from repro.ioa.acceptor import RESTART
from repro.runtime.heartbeat import HB_INTERVAL, HB_TIMEOUT
from repro.runtime.node import MonotonicClock, RuntimeNode

#: Default hard bound (seconds) on any single marshalled call.
CALL_TIMEOUT = 30.0


class RuntimeCluster:
    """A live N-node loopback cluster with a synchronous facade.

    ``app_factory`` (optional) builds one application object per node,
    e.g. ``lambda node: KvReplica(node.to)``; it is re-invoked on
    restart so the fresh incarnation starts with fresh state.
    ``cb_app_factory`` is the same hook for the causal tier, e.g.
    ``lambda node: PresenceBoard(node.cb)`` -- a node can host both.
    """

    def __init__(self, processes, host="127.0.0.1", monitor=True,
                 app_factory=None, cb_app_factory=None,
                 hb_interval=HB_INTERVAL, hb_timeout=HB_TIMEOUT, obs=None,
                 nemesis=None, fault_seed=0, dvs_factory=None,
                 record=False):
        self.processes = sorted(processes)
        self.initial_view = make_view(0, self.processes)
        self._host = host
        self._hb_interval = hb_interval
        self._hb_timeout = hb_timeout
        self._app_factory = app_factory
        self._cb_app_factory = cb_app_factory
        self._dvs_factory = dvs_factory
        self._clock = None
        if obs is True:
            from repro.obs import Observability

            obs = Observability()
        #: Optional :class:`repro.obs.Observability`: spans + action
        #: counts, fed on the loop thread; the snapshot methods below
        #: copy it there and read the copy on the caller's thread.
        self.obs = obs
        self.log = ActionLog(clock=self._log_now, tracer=obs)
        self.monitor = None
        if monitor:
            self.monitor = SafetyMonitor(self.initial_view, fail_fast=False)
            self.monitor.attach(self.log)
        #: Shared fault interposer + scheduled nemesis, mirroring the
        #: simulator cluster's ``nemesis=`` hook: pass a
        #: :class:`~repro.faults.nemesis.NemesisPlan` (or op list, or a
        #: prebuilt :class:`~repro.runtime.faultnet.LiveNemesis`) and it
        #: is armed on the event loop when the cluster starts.
        self.faultnet = None
        if nemesis is not None:
            from repro.runtime.faultnet import FaultNet, LiveNemesis

            self.faultnet = FaultNet(seed=fault_seed)
            if not isinstance(nemesis, LiveNemesis):
                nemesis = LiveNemesis(nemesis, faultnet=self.faultnet)
        self.nemesis = nemesis
        #: Trace capture (``record=True`` or a prebuilt
        #: :class:`~repro.obs.record.TraceRecorder`): every stack input
        #: is recorded so the run replays deterministically offline.
        if record:
            from repro.obs.record import TraceRecorder

            if record is True:
                record = TraceRecorder()
            self.log.observers.append(record.on_action)
        self.wiretap = record or None
        #: What the layers record into: the log when the monitor, the
        #: tracer or the wiretap reads it, else nothing (``log`` stays
        #: empty), as for ``serve --pid``.
        watchers = (self.monitor, obs, self.wiretap)
        self._recorder = (
            self.log if any(w is not None for w in watchers) else None
        )
        self._book = {}
        self._nodes = {}
        self._apps = {}
        self._cb_apps = {}
        self._loop = None
        self._thread = None

    def _log_now(self):
        return self._clock.now if self._clock is not None else None

    # -- Lifecycle ---------------------------------------------------------

    def start(self, timeout=CALL_TIMEOUT):
        """Boot the loop thread and every node; returns self."""
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-runtime-loop",
            daemon=True,
        )
        self._thread.start()
        self._call(self._start_all, timeout=timeout)
        return self

    async def _start_all(self):
        self._clock = MonotonicClock(asyncio.get_running_loop())
        for pid in self.processes:
            await self._boot(pid, member=None)
        if self.nemesis is not None:
            self.nemesis.arm(self)

    @property
    def clock(self):
        # Benign race: GIL-atomic reference read; the clock is written
        # once at startup and is itself thread-safe.
        return self._clock

    def _build_node(self, pid, member):
        return RuntimeNode(
            pid, self._book, initial_view=self.initial_view,
            recorder=self._recorder, member=member, host=self._host,
            hb_interval=self._hb_interval, hb_timeout=self._hb_timeout,
            obs=self.obs,
            faultnet=self.faultnet, wiretap=self.wiretap,
            dvs_factory=self._dvs_factory,
        )

    async def _boot(self, pid, member):
        """Start ``pid``'s node and its applications (loop thread);
        ``member=False`` is the amnesiac rejoin, marked in the log as
        ``restart(pid)`` for the monitor and the acceptor to read."""
        if member is False and self._recorder is not None:
            self._recorder.record(RESTART, pid)
        node = self._build_node(pid, member)
        self._nodes[pid] = node
        await node.start(clock=self._clock)
        if self._app_factory is not None:
            self._apps[pid] = self._app_factory(node)
        if self._cb_app_factory is not None:
            self._cb_apps[pid] = self._cb_app_factory(node)

    def stop(self, timeout=CALL_TIMEOUT):
        """Stop every node, then the loop and its thread."""
        if self._loop is None:
            return
        self._call(self._stop_all, timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()
        self._loop = None

    async def _stop_all(self):
        for node in self._nodes.values():
            await node.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- Marshalling -------------------------------------------------------

    def _call(self, fn, *args, timeout=CALL_TIMEOUT):
        """Run ``fn`` (sync or async) on the loop thread; hard timeout."""

        async def runner():
            result = fn(*args)
            if asyncio.iscoroutine(result):
                result = await result
            return result

        future = asyncio.run_coroutine_threadsafe(runner(), self._loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()
            raise

    # -- Fault injection ---------------------------------------------------

    def kill(self, pid, timeout=CALL_TIMEOUT):
        """Crash ``pid``: close its sockets and discard the node."""
        self._call(self._kill_async, pid, timeout=timeout)
        return self

    async def _kill_async(self, pid):
        # The pops happen on the loop thread, where _boot writes the
        # same dicts.
        node = self._nodes.pop(pid)
        self._apps.pop(pid, None)
        self._cb_apps.pop(pid, None)
        await node.stop()

    def restart(self, pid, timeout=CALL_TIMEOUT):
        """Rejoin ``pid`` as a fresh amnesiac incarnation (new port)."""
        self._call(self._boot, pid, False, timeout=timeout)
        return self

    # -- Nemesis surface (called on the loop thread) -----------------------

    async def nemesis_kill(self, pid):
        """Crash op from a :class:`~repro.runtime.faultnet.LiveNemesis`;
        tolerates an already-dead target (plans may race restarts)."""
        if pid in self._nodes:
            await self._kill_async(pid)

    async def nemesis_revive(self, pid):
        """Recover op: always an *amnesiac* rejoin (a fresh process
        reusing the id), unlike the simulator's resume of the old state."""
        if pid not in self._nodes:
            await self._boot(pid, member=False)

    def note_nemesis(self, op):
        """Annotate the trace with an applied fault op (loop thread)."""
        # Only ever called from LiveNemesis timers on the loop thread,
        # after _start_all set the clock.
        if self.wiretap is not None and self._clock is not None:
            self.wiretap.record(
                self._clock.now, "*", "nemesis", op.describe()
            )

    # -- Client surface ----------------------------------------------------

    def bcast(self, pid, payload, ordering="to"):
        """Broadcast through ``pid`` with the chosen ordering strength:
        ``"to"`` (totally ordered) or ``"cb"`` (causally ordered)."""
        # The node lookup must happen inside the marshalled callable:
        # evaluating self._nodes[pid] here would read loop-owned state
        # on the caller thread.
        call = lambda: self._nodes[pid].tower.bcast(  # noqa: E731
            payload, ordering
        )
        self._call(call)
        return self

    def call_node(self, pid, fn, timeout=CALL_TIMEOUT):
        """Run ``fn(node)`` on the loop thread and return its result."""
        return self._call(lambda: fn(self._nodes[pid]), timeout=timeout)

    def call_app(self, pid, fn, timeout=CALL_TIMEOUT):
        """Run ``fn(app)`` on the loop thread and return its result."""
        return self._call(lambda: fn(self._apps[pid]), timeout=timeout)

    def call_cb_app(self, pid, fn, timeout=CALL_TIMEOUT):
        """Run ``fn(cb_app)`` on the loop thread and return its result."""
        return self._call(lambda: fn(self._cb_apps[pid]), timeout=timeout)

    def app(self, pid):
        # Benign race: a single GIL-atomic dict lookup, and the only
        # loop-side writers key it by pid before the caller can know it.
        return self._apps[pid]

    def cb_app(self, pid):
        # Benign race: same single GIL-atomic dict lookup as app().
        return self._cb_apps[pid]

    def live(self):
        """Ids of the currently running nodes, sorted."""
        # Benign race: a GIL-atomic snapshot of the key set; callers
        # treat it as advisory (membership may move right after).
        return sorted(self._nodes)

    # -- Waiting -----------------------------------------------------------

    def wait_until(self, predicate, timeout=CALL_TIMEOUT, poll=0.02,
                   what="condition"):
        """Poll ``predicate`` (evaluated on the loop thread) until true.

        Raises ``TimeoutError`` naming ``what`` on expiry -- the hang
        guard every integration test leans on.
        """
        # Wall clock is the point: this is the real-time hang guard on
        # the caller's thread, outside the simulated world (DESIGN.md §9).
        deadline = time.monotonic() + timeout  # lint: ignore[DVS006]
        while True:
            if self._call(predicate, timeout=timeout):
                return self
            if time.monotonic() >= deadline:  # lint: ignore[DVS006]
                raise TimeoutError(
                    "timed out after {0:.1f}s waiting for {1}".format(
                        timeout, what
                    )
                )
            time.sleep(poll)

    def wait_formation(self, pids=None, timeout=CALL_TIMEOUT):
        """Wait until every expected node has established the primary
        view consisting of exactly ``pids`` (default: all live nodes)
        through a membership round, so not the pre-agreed ``g0``."""
        # Benign race: GIL-atomic key-set snapshot fixing the target
        # membership; the predicate itself runs marshalled on the loop.
        expected = frozenset(pids if pids is not None else self._nodes)

        def formed():
            for pid in expected:
                node = self._nodes.get(pid)
                if node is None:
                    return False
                to = node.to
                if (
                    to.status != NORMAL
                    or to.current is None
                    or to.current.id.epoch < 1
                    or to.current.set != expected
                ):
                    return False
            return True

        return self.wait_until(
            formed, timeout=timeout,
            what="primary view over {0}".format(sorted(expected)),
        )

    # -- Observation -------------------------------------------------------

    @property
    def violations(self):
        return list(self.monitor.violations) if self.monitor else []

    def errors(self):
        """Layer exceptions recorded by any live node."""
        return self._call(lambda: {
            pid: list(node.errors)
            for pid, node in sorted(self._nodes.items())
            if node.errors
        })

    def check(self):
        """Assert the run is clean: no monitor violations, no errors."""
        errors = self.errors()
        assert not errors, "layer errors: {0!r}".format(errors)
        assert self.monitor is None or self.monitor.ok, (
            "safety violations: "
            + "; ".join(v.summary() for v in self.monitor.violations)
        )
        return self

    def _node_stats(self):
        return {
            pid: node.stats() for pid, node in sorted(self._nodes.items())
        }

    def stats(self):
        """Each live node's ``stats()``: one incarnation's counts."""
        return self._call(self._node_stats)

    # -- Trace capture (requires ``record=``) ------------------------------

    def _require_wiretap(self):
        if self.wiretap is None:
            raise ValueError(
                "cluster built without record= (pass record=True to "
                "capture a replayable trace)"
            )
        return self.wiretap

    def snapshot_trace(self):
        """The events recorded so far, as an immutable
        :class:`~repro.obs.record.ReplayTrace` (loop-thread snapshot).

        May also be called after :meth:`stop` (the loop is gone but so
        are the writers), which is how a chaos harness grabs the final
        trace."""
        wiretap = self._require_wiretap()

        def snap():
            return wiretap.trace(
                self.processes, self.initial_view,
                dvs=dvs_factory_name(self._dvs_factory),
            )

        if self._loop is None:
            return snap()
        return self._call(snap)

    # -- Observability (requires ``obs=``) ---------------------------------

    def _require_obs(self):
        if self.obs is None:
            raise ValueError(
                "cluster built without obs= (pass obs=True to arm "
                "tracing and action counts)"
            )
        return self.obs

    def _observed(self):
        """A copy of the tracer's log and the action counts, and each
        live node's ``stats()``, taken in one marshalled call; the
        caller stitches the copy on its own thread, so reading a long
        trace holds the loop only for the copy."""
        obs = self._require_obs()
        return self._call(lambda: (obs.copy(), self._node_stats()))

    def trace_snapshot(self):
        """The full stitched trace (spans, views, per-stage summary) as
        JSON-ready data."""
        obs, _ = self._observed()
        return obs.tracer.to_json_dict()

    def obs_snapshot(self):
        """Action counts, the trace summary and derived gcs statistics
        (``Observability.snapshot()``), plus each live node's
        ``stats()`` under ``nodes``."""
        obs, nodes = self._observed()
        return dict(obs.snapshot(), nodes=nodes)

    def snapshots(self):
        """``(trace_snapshot(), obs_snapshot())`` from one copy and one
        stitch: the snapshot's trace summary is the trace's."""
        obs, nodes = self._observed()
        trace = obs.tracer.to_json_dict()
        return trace, dict(obs.snapshot(trace["summary"]), nodes=nodes)
