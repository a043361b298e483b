"""One-call live chaos runs: the real-TCP twin of
:func:`repro.faults.harness.run_chaos`.

:func:`run_live_chaos` boots a :class:`~repro.runtime.cluster.
RuntimeCluster`, arms the same :class:`~repro.faults.nemesis.
NemesisPlan` DSL against real sockets through
:class:`~repro.runtime.faultnet.LiveNemesis`, drives a round-robin
broadcast workload on the wall clock while the faults play out, and
returns a :class:`~repro.faults.harness.ChaosResult` carrying the
monitor and the recorded :class:`~repro.obs.record.ReplayTrace` -- the
artifact that makes the nondeterministic run checkable offline
(:mod:`repro.checking.replay`).

Times in a live plan are wall-clock *seconds*, so live plans are short:
a few seconds of partitions, latency and loss exercise the same protocol
paths hundreds of simulated units do.
"""

import time

from repro.faults.harness import ChaosResult, workload_send
from repro.faults.nemesis import NemesisPlan
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.heartbeat import HB_INTERVAL, HB_TIMEOUT


def run_live_chaos(
    processes,
    plan=None,
    duration=None,
    broadcast_interval=0.25,
    settle_time=1.5,
    dvs_factory=None,
    hb_interval=HB_INTERVAL,
    hb_timeout=HB_TIMEOUT,
    fault_seed=0,
):
    """Run the live stack under a nemesis plan with an armed monitor.

    The cluster forms first (tolerantly: a plan that disrupts formation
    itself is legal), then the workload
    (:func:`~repro.faults.harness.workload_send`, the simulated run's)
    broadcasts every ``broadcast_interval`` seconds from the live nodes
    until ``duration`` (default: the plan's horizon plus a settle
    margin) has elapsed, then the run settles and stops.  Violations
    are collected, never raised (``fail_fast=False``).
    """
    processes = tuple(sorted(processes))
    plan = NemesisPlan.of(plan)
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
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            pids = cluster.live()
            if pids:
                pid, ordering, payload = workload_send(pids, counter)
                try:
                    cluster.bcast(pid, payload, ordering=ordering)
                except KeyError:
                    pass  # the node died between live() and the call
            counter += 1
            time.sleep(broadcast_interval)
        time.sleep(settle_time)
        node_stats = cluster.stats()
    finally:
        cluster.stop()
    trace = cluster.snapshot_trace()
    stats = dict(
        cluster.monitor.stats(),
        workload_bcasts=counter,
        plan_ops=len(plan),
        nodes=node_stats,
        faultnet=cluster.faultnet.stats(),
        trace_events=len(trace),
    )
    return ChaosResult(
        processes=processes,
        plan=plan,
        monitor=cluster.monitor,
        stats=stats,
        trace=trace,
    )
