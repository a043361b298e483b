"""One-call wiring of a full simulated cluster.

A :class:`Cluster` builds, per process: a network node running the
view-synchronous stack, the dynamic-primary (DVS) layer on top of it
and, optionally, the two ordering towers over it -- totally-ordered
broadcast (TO) and causal broadcast (CB), side by side behind a
:class:`~repro.gcs.cb_layer.DvsFanout` -- with a single shared
:class:`~repro.gcs.recorder.ActionLog` so the whole run can be checked
with the trace-property suite and analysed afterwards.  Clients pick
the ordering strength per send: ``bcast(pid, payload, ordering="to")``
or ``ordering="cb"``.
"""

from repro.core.views import make_view
from repro.gcs.recorder import ActionLog
from repro.gcs.tower import Tower
from repro.net.events import NonQuiescentError
from repro.net.simulator import Network


class Cluster:
    """A simulated deployment of the full stack.

    Chaos-testing hooks (see :mod:`repro.faults`):

    - ``nemesis`` -- a :class:`repro.faults.nemesis.Nemesis` (or plain
      plan) armed on the network at :meth:`start`;
    - ``monitor`` -- ``True`` arms an online
      :class:`repro.faults.monitor.SafetyMonitor`;
      an armed monitor forces full network logging regardless of
      ``log_limit``;
    - ``dvs_factory`` -- substitute dynamic-primary layer constructor
      (e.g. :class:`repro.dvs.ablation.NoMajorityDvsLayer`), signature
      ``factory(stack, initial_view, recorder=..., member=...)``;
    - ``log_limit`` -- bound the network event log's memory (entries
      kept), for long monitored-elsewhere runs;
    - ``check_effects`` -- debug mode: bracket every event dispatch
      with snapshots of every *other* process's layer state and raise
      :class:`~repro.gcs.effect_check.EffectIsolationError` if handling
      an event at one process mutates another's state (the check that
      no process reaches another's state but through the network,
      DESIGN.md section 8);
    - ``obs`` -- ``True`` for a fresh :class:`repro.obs.Observability`
      (or a prebuilt one): causal spans + action counts collected from
      the action log and the simulated wire, with no change to what
      the trace-property checkers see.
    """

    def __init__(
        self,
        processes,
        seed=0,
        with_to_layer=True,
        initial_view=None,
        min_latency=1.0,
        max_latency=2.0,
        nemesis=None,
        monitor=None,
        dvs_factory=None,
        log_limit=None,
        check_effects=False,
        obs=None,
    ):
        self.processes = sorted(processes)
        if initial_view is None:
            initial_view = make_view(0, self.processes)
        self.initial_view = initial_view
        if monitor:
            log_limit = None  # a monitor's diagnostics need the full log
        if obs is True:
            from repro.obs import Observability

            obs = Observability()
        self.obs = obs
        self.net = Network(
            seed=seed, min_latency=min_latency, max_latency=max_latency,
            log_limit=log_limit, tracer=obs,
        )
        self.log = ActionLog(clock=lambda: self.net.queue.now, tracer=obs)
        self.monitor = None
        if monitor:
            from repro.faults.monitor import SafetyMonitor

            self.monitor = SafetyMonitor(initial_view, net=self.net)
            self.monitor.attach(self.log)
        self.nemesis = self._build_nemesis(nemesis)
        self.last_settle = None
        self.towers = {}
        self.stacks = {}
        self.dvs = {}
        self.fanouts = {}
        self.to = {}
        self.cb = {}
        for pid in self.processes:
            tower = Tower(
                pid, initial_view, recorder=self.log,
                dvs_factory=dvs_factory, orderings=with_to_layer,
            )
            self.net.add_node(tower.stack)
            self.towers[pid] = tower
            self.stacks[pid] = tower.stack
            self.dvs[pid] = tower.dvs
            if with_to_layer:
                self.fanouts[pid] = tower.fanout
                self.to[pid] = tower.to
                self.cb[pid] = tower.cb
        self.effect_checker = None
        if check_effects:
            from repro.gcs.effect_check import EffectIsolationChecker

            self.effect_checker = EffectIsolationChecker(self).install()

    def _build_nemesis(self, nemesis):
        if nemesis is None:
            return None
        from repro.faults.nemesis import Nemesis

        if not isinstance(nemesis, Nemesis):
            nemesis = Nemesis(nemesis)
        return nemesis

    # -- Convenience passthroughs ---------------------------------------------------

    def start(self):
        if self.nemesis is not None:
            self.nemesis.arm(self.net)
        self.net.start()
        return self

    def run(self, duration):
        self.net.run_until(self.net.queue.now + duration)
        return self

    def settle(self, max_time=None, max_events=1000000, strict=True):
        """Run until no events remain (bounded by ``max_time`` from now).

        Stopping at ``max_time`` is the caller's explicit bound and is
        fine; exhausting ``max_events`` without quiescing means the run
        was truncated mid-flight, which ``strict`` surfaces as a
        :class:`~repro.net.events.NonQuiescentError` instead of silently
        returning a half-finished simulation.  The last status is kept in
        ``last_settle``.
        """
        bound = float("inf") if max_time is None else (
            self.net.queue.now + max_time
        )
        status = self.net.run_to_quiescence(
            max_time=bound, max_events=max_events
        )
        self.last_settle = status
        if strict and status.reason == "max_events":
            raise NonQuiescentError(status)
        return self

    def partition(self, *groups):
        self.net.partition([set(g) for g in groups])
        return self

    def heal(self):
        self.net.heal()
        return self

    def crash(self, pid):
        self.net.crash(pid)
        return self

    def recover(self, pid):
        self.net.recover(pid)
        return self

    def bcast(self, pid, payload, ordering="to"):
        """Broadcast at ``pid`` with the chosen ordering strength."""
        self.towers[pid].bcast(payload, ordering)
        return self

    # -- Observation ---------------------------------------------------------------------

    def delivered(self, pid):
        """The totally ordered deliveries observed at ``pid`` so far."""
        return self.log.at("brcv", pid)

    def cb_delivered(self, pid):
        """The causally ordered deliveries observed at ``pid`` so far."""
        return [(m.payload, q) for m, q in self.log.at("cb_brcv", pid)]

    def primary_views(self, pid):
        """The primary views attempted at ``pid``, in order."""
        return [view for (view,) in self.log.at("dvs_newview", pid)]

    def current_primary(self, pid):
        views = self.primary_views(pid)
        if views:
            return views[-1]
        return self.initial_view if pid in self.initial_view.set else None
