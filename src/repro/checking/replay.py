"""Deterministic replay of recorded live executions.

:func:`replay_trace` rebuilds the *unchanged* gcs layer tower (VS ->
DVS -> {TO, CB}) for every process in a
:class:`~repro.obs.record.ReplayTrace`
and feeds the recorded input events back in recorded order, with a
fresh :class:`~repro.faults.monitor.SafetyMonitor` armed on a fresh
:class:`~repro.gcs.recorder.ActionLog`.  Because the layers are
deterministic functions of their input sequence (no clocks or entropy
-- the chaos goldens, replayed under two hash seeds, check it -- and a
timer fires only
where the trace says it fired), two replays of the
same trace produce identical action logs, deliveries and digests: a
nondeterministic live run becomes a deterministic artifact the instant
it is recorded.

The tower's network stand-in is a sink: sends and broadcasts go
nowhere, because every frame the live run actually *delivered* is
already in the trace as a ``recv`` event.  Replay therefore checks the
safety of what happened, not of what might have happened -- exactly the
monitor's job.

:func:`shrink_replay` closes the loop with the generic ddmin shrinker
(:func:`repro.faults.shrink.shrink_plan` is structure-agnostic): a
violating live trace minimizes to a 1-minimal event sequence that still
trips the monitor, i.e. a minimal simulator-checked counterexample.
"""

import hashlib
from dataclasses import dataclass, field

from repro.dvs.ablation import DVS_FACTORIES
from repro.faults.harness import _canon
from repro.faults.monitor import SafetyMonitor
from repro.faults.shrink import shrink_plan
from repro.gcs.recorder import ActionLog
from repro.gcs.tower import Tower
from repro.ioa.acceptor import RESTART
from repro.obs.record import ReplayTrace, TraceError

class _ReplayClock:
    """A settable clock: replay pins it to each event's recorded time,
    so monitor diagnostics and action timestamps match the live run."""

    def __init__(self):
        self.now = 0.0


class _SinkNet:
    """The Network slice a replayed tower sees: output sinks, and a timer
    fires only where the trace recorded it."""

    def send(self, src, dst, msg):
        pass

    def broadcast(self, src, dsts, msg):
        pass

    def set_timer(self, pid, delay, tag):
        pass


def _replay_tower(pid, initial_view, member, dvs_cls, recorder, net):
    """One process's rebuilt VS->DVS->{TO,CB} towers, started."""
    tower = Tower(
        pid, initial_view, recorder=recorder, member=member,
        dvs_factory=dvs_cls,
    )
    tower.stack.net = net
    tower.stack.on_start()
    return tower


@dataclass
class ReplayResult:
    """Outcome of one deterministic replay under ``monitor``."""

    trace: ReplayTrace
    monitor: SafetyMonitor = None
    deliveries: dict = field(default_factory=dict)
    digest: str = ""
    errors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def violations(self):
        return self.monitor.violations

    @property
    def ok(self):
        return self.monitor.ok


def replay_trace(trace):
    """Feed a recorded trace through fresh towers under a fresh monitor.

    Mirrors the live dispatch discipline: layer exceptions are recorded
    per event (``errors``), never propagated, so one bad event cannot
    mask later ones; events for processes with no (live) tower -- e.g.
    after the shrinker removed their ``start`` -- are skipped, which
    keeps every ddmin candidate a valid input.
    """
    if trace.dvs not in DVS_FACTORIES:
        raise TraceError(
            "trace needs unknown dvs factory {0!r}".format(trace.dvs)
        )
    dvs_cls = DVS_FACTORIES[trace.dvs]
    clock = _ReplayClock()
    net = _SinkNet()
    log = ActionLog(clock=lambda: clock.now)
    monitor = SafetyMonitor(trace.initial_view, fail_fast=False).attach(log)
    towers = {}
    errors = []
    dispatched = skipped = 0
    for index, event in enumerate(trace.events):
        clock.now = event.t
        pid, kind, data = event.pid, event.kind, event.data
        if kind == "start":
            member = data[0] if data else None
            if member is False:
                # An amnesiac rejoin: marked as the live cluster does.
                log.record(RESTART, pid)
            towers[pid] = _replay_tower(
                pid, trace.initial_view, member, dvs_cls, log, net
            )
            dispatched += 1
            continue
        if kind == "nemesis":
            continue
        tower = towers.get(pid)
        if tower is None:
            skipped += 1
            continue
        if kind == "stop":
            towers.pop(pid, None)
            dispatched += 1
            continue
        try:
            if kind == "recv":
                tower.stack.on_message(data[0], data[1])
            elif kind == "conn":
                tower.stack.on_connectivity(frozenset(data[0]))
            elif kind == "timer":
                tower.stack.on_timer(data[0])
            elif kind == "bcast":
                tower.to.bcast(data[0])
            elif kind == "cbcast":
                tower.cb.cbcast(data[0])
            dispatched += 1
        except Exception as exc:
            errors.append((index, pid, kind, exc))
    deliveries = {}
    for pid in trace.processes:
        delivered = log.at("brcv", pid)
        if delivered:
            deliveries[pid] = delivered
    digest = hashlib.sha256()
    for time, action in log.timed_actions():
        digest.update(_canon((time, action.name, action.params)).encode())
    stats = dict(monitor.stats())
    stats.update({
        "events": len(trace.events),
        "dispatched": dispatched,
        "skipped": skipped,
        "actions": len(log.actions),
        "layer_errors": len(errors),
    })
    return ReplayResult(
        trace=trace,
        monitor=monitor,
        deliveries=deliveries,
        digest=digest.hexdigest(),
        errors=errors,
        stats=stats,
    )


def check_replay_determinism(trace):
    """Replay twice; return the (identical) results or raise.

    This is the acceptance gate for the recording cut: if anything
    nondeterministic leaked into the layers, the two digests diverge.
    """
    first = replay_trace(trace)
    second = replay_trace(trace)
    if first.digest != second.digest:
        raise AssertionError(
            "replay is nondeterministic: digests {0} != {1}".format(
                first.digest, second.digest
            )
        )
    if first.deliveries != second.deliveries:
        raise AssertionError("replay is nondeterministic: deliveries differ")
    return first, second


def shrink_replay(trace, max_probes=300, prop=None):
    """ddmin a violating trace to a 1-minimal event sequence.

    ``prop`` (optional) pins the violated property name, so shrinking
    cannot wander onto a *different* violation and minimize that one
    instead.  Returns ``(minimal_trace, probes, final_result)``.
    """

    def fails(candidate):
        result = replay_trace(candidate)
        if prop is None:
            return bool(result.violations)
        return any(v.prop == prop for v in result.violations)

    minimal, probes = shrink_plan(trace, fails, max_probes=max_probes)
    return minimal, probes, replay_trace(minimal)
