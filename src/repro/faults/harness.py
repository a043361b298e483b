"""One-call chaos runs: workload + nemesis + online monitor + digest.

:func:`run_chaos` deploys a full :class:`~repro.gcs.cluster.Cluster`,
arms a nemesis plan and a :class:`~repro.faults.monitor.SafetyMonitor`,
drives a deterministic broadcast workload while the faults play out, and
returns a :class:`ChaosResult` with the (possible) violation, run
statistics and a digest of the network event log -- two runs with the
same ``(seed, plan)`` produce byte-identical logs, so equal digests.

:func:`find_and_shrink` wraps a failing run with the delta-debugging
shrinker and returns a replayable :class:`~repro.faults.shrink.ReproCase`.
"""

import dataclasses
import hashlib
from dataclasses import dataclass, field

from repro.faults.monitor import SafetyMonitor, SafetyViolation
from repro.faults.nemesis import Nemesis, NemesisPlan
from repro.faults.shrink import ReproCase, shrink_plan
from repro.gcs.cluster import Cluster
from repro.gcs.tower import alternating


def _canon(value):
    """A canonical string for a logged value.

    ``repr`` alone is not replay-stable: frozensets inside message
    dataclasses iterate in hash order, which varies across interpreter
    invocations (PYTHONHASHSEED).  Sets are rendered sorted and
    dataclasses field-by-field so equal logs always hash equally.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            sorted(_canon(k) + ":" + _canon(v) for k, v in value.items())
        ) + "}"
    if isinstance(value, float):
        return "{0:.9g}".format(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__ + "(" + ",".join(
            f.name + "=" + _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ) + ")"
    return repr(value)


def log_digest(net_log):
    """A replay-stable digest of the network event log."""
    h = hashlib.sha256()
    for time, kind, details in net_log:
        h.update(_canon((round(time, 9), kind, details)).encode())
    return h.hexdigest()


def workload_send(senders, tick):
    """Tick ``tick`` of the chaos workload, in either world: the
    ``senders`` take turns, the ordering tier alternates (so every
    schedule exercises both towers over the same faults) and every
    payload is unique.  Returns ``(pid, ordering, payload)``."""
    pid = senders[tick % len(senders)]
    return pid, alternating(tick), ("w", pid, tick)


@dataclass
class ChaosResult:
    """Outcome of one chaos run: a simulated one has ``seed`` and the
    network log's ``digest`` (``cluster`` on request), a live one the
    recorded :class:`~repro.obs.record.ReplayTrace`.  ``monitor`` is the
    run's one oracle (None when it ran unwatched)."""

    processes: tuple
    plan: NemesisPlan
    monitor: SafetyMonitor = None
    stats: dict = field(default_factory=dict)
    seed: int = None
    digest: str = ""
    cluster: Cluster = None
    trace: object = None

    @property
    def violations(self):
        return self.monitor.violations if self.monitor is not None else []

    @property
    def ok(self):
        return not self.violations

    @property
    def violation(self):
        """The first violation (a simulated run stops at it), or None."""
        return self.violations[0] if self.violations else None


def run_chaos(
    processes,
    seed=0,
    plan=None,
    duration=None,
    broadcast_interval=8.0,
    settle_time=400.0,
    dvs_factory=None,
    monitor=True,
    log_limit=None,
    keep_cluster=False,
):
    """Run the full stack under a nemesis plan with an armed monitor.

    The workload (:func:`workload_send`) broadcasts every
    ``broadcast_interval`` time units from the processes in rotation,
    skipping crashed senders, for ``duration`` simulated time units
    (default: the plan's horizon plus one settle margin), then lets the
    network quiesce for up to ``settle_time``.  A monitor violation aborts
    the run immediately and is returned in the result rather than raised.
    """
    processes = tuple(sorted(processes))
    plan = NemesisPlan.of(plan)
    if duration is None:
        duration = plan.horizon + 50.0
    cluster = Cluster(
        processes,
        seed=seed,
        nemesis=Nemesis(plan),
        monitor=monitor,
        dvs_factory=dvs_factory,
        log_limit=log_limit,
    )
    net = cluster.net

    counter = [0]

    def broadcast_tick():
        if net.queue.now >= duration:
            return
        pid, ordering, payload = workload_send(processes, counter[0])
        if net.alive(pid):
            net.record("workload", (ordering, payload))
            cluster.bcast(pid, payload, ordering=ordering)
        counter[0] += 1
        net.queue.schedule(broadcast_interval, broadcast_tick)

    net.queue.schedule(broadcast_interval, broadcast_tick)

    try:
        cluster.start()
        cluster.run(duration)
        cluster.settle(max_time=settle_time, strict=False)
    except SafetyViolation:
        pass  # the monitor keeps it: ``result.violations``

    stats = dict(cluster.monitor.stats()) if cluster.monitor else {}
    stats.update(
        {
            "sim_time": net.queue.now,
            "net_events": len(net.log) + net.log.dropped,
            "wire_sends": sum(1 for _, k, _ in net.log if k == "send"),
            "drops": sum(
                1 for _, k, _ in net.log if k in ("drop", "fault_drop")
            ),
            "plan_ops": len(plan),
        }
    )
    return ChaosResult(
        processes=processes,
        plan=plan,
        monitor=cluster.monitor,
        stats=stats,
        seed=seed,
        digest=log_digest(net.log),
        cluster=cluster if keep_cluster else None,
    )


def find_and_shrink(result, max_probes=200, **run_kwargs):
    """Shrink a failing :class:`ChaosResult` to a minimal repro.

    Re-runs the deterministic simulation with candidate sub-plans as the
    ddmin oracle; a candidate "fails" when it still trips a monitor.
    """
    if result.ok:
        raise ValueError("run did not violate safety: nothing to shrink")

    def fails(candidate):
        rerun = run_chaos(
            result.processes, seed=result.seed, plan=candidate, **run_kwargs
        )
        return rerun.violation is not None

    minimal, probes = shrink_plan(result.plan, fails, max_probes=max_probes)
    final = run_chaos(
        result.processes, seed=result.seed, plan=minimal, **run_kwargs
    )
    return ReproCase(
        seed=result.seed,
        processes=result.processes,
        plan=minimal,
        violation=final.violation or result.violation,
        probes=probes,
    )
