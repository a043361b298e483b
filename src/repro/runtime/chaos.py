"""One-call live chaos runs: the real-TCP twin of
:func:`repro.faults.harness.run_chaos`.

:func:`run_live_chaos` boots a :class:`~repro.runtime.cluster.
RuntimeCluster`, arms the same :class:`~repro.faults.nemesis.
NemesisPlan` DSL against real sockets through
:class:`~repro.runtime.faultnet.LiveNemesis`, drives a round-robin
broadcast workload on the wall clock while the faults play out, and
returns a :class:`LiveChaosResult` carrying the monitor's verdict plus
the recorded :class:`~repro.obs.record.ReplayTrace` -- the artifact
that makes the nondeterministic run checkable offline
(:mod:`repro.checking.replay`).

Times in a live plan are wall-clock *seconds* (a simulator plan in
abstract time units converts with ``plan.scaled(...)``), so live plans
are short: a few seconds of partitions, latency and loss exercise the
same protocol paths hundreds of simulated units do.
"""

import time
from dataclasses import dataclass, field

from repro.faults.nemesis import NemesisPlan
from repro.runtime.cluster import RuntimeCluster


@dataclass
class LiveChaosResult:
    """Outcome of one live chaos run."""

    processes: tuple
    plan: NemesisPlan
    violations: list = field(default_factory=list)
    trace: object = None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations


def run_live_chaos(
    processes,
    plan=None,
    duration=None,
    broadcast_interval=0.25,
    settle_time=1.5,
    dvs_factory=None,
    hb_interval=0.05,
    hb_timeout=0.25,
    fault_seed=0,
):
    """Run the live stack under a nemesis plan with an armed monitor.

    The cluster forms first (tolerantly: a plan that disrupts formation
    itself is legal), then the workload broadcasts one unique payload
    every ``broadcast_interval`` seconds from the live nodes in
    rotation -- alternating the ordering tier, even ticks through TO
    and odd ticks through CB, so both towers face the same faults --
    until ``duration`` (default: the plan's horizon plus a settle
    margin) has elapsed, then the run settles and stops.  Violations
    are collected, never raised (``fail_fast=False``).
    """
    processes = tuple(sorted(processes))
    plan = plan if isinstance(plan, NemesisPlan) else NemesisPlan(plan or ())
    if duration is None:
        duration = plan.horizon + 2.0
    cluster = RuntimeCluster(
        processes,
        nemesis=plan,
        dvs_factory=dvs_factory,
        record=True,
        fault_seed=fault_seed,
        hb_interval=hb_interval,
        hb_timeout=hb_timeout,
    )
    counter = 0
    cluster.start()
    try:
        try:
            cluster.wait_formation()
        except TimeoutError:
            # The plan may forbid formation (e.g. an immediate
            # partition); the workload below skips dead/unformed nodes.
            pass
        # The pacing below is the whole point of a *live* run: real
        # seconds elapse while sockets, heartbeats and the fault
        # schedule race each other (DESIGN.md §9, §12).
        deadline = time.monotonic() + duration  # lint: ignore[DVS006]
        while time.monotonic() < deadline:  # lint: ignore[DVS006]
            pids = cluster.live()
            if pids:
                pid = pids[counter % len(pids)]
                ordering = "to" if counter % 2 == 0 else "cb"
                try:
                    cluster.bcast(pid, ("w", pid, counter),
                                  ordering=ordering)
                except KeyError:
                    pass  # the node died between live() and the call
            counter += 1
            time.sleep(broadcast_interval)
        time.sleep(settle_time)
        node_stats = cluster.stats()
    finally:
        cluster.stop()
    stats = dict(cluster.monitor.stats()) if cluster.monitor else {}
    stats.update({
        "workload_bcasts": counter,
        "plan_ops": len(plan),
        "nodes": node_stats,
    })
    if cluster.faultnet is not None:
        stats["faultnet"] = cluster.faultnet.stats()
    trace = cluster.snapshot_trace()
    stats["trace_events"] = len(trace)
    return LiveChaosResult(
        processes=processes,
        plan=plan,
        violations=cluster.violations,
        trace=trace,
        stats=stats,
    )
