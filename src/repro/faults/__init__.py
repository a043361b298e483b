"""Fault injection, online safety monitoring and counterexample shrinking.

The paper's guarantees are safety properties that must hold under an
*arbitrary* fair-lossy adversary, not just the clean symmetric partitions
the original simulator scripts produced.  This package supplies that
adversary and the machinery to check the stack against it:

- :mod:`repro.faults.models` -- link-level fault models pluggable into
  :class:`repro.net.simulator.Network`: probabilistic drop, duplication,
  delay jitter/spikes, asymmetric one-way link blocks.  All randomness
  comes from the network's seeded RNG, so every faulty run replays
  deterministically.
- :mod:`repro.faults.nemesis` -- composable, timed fault *plans*
  (crash-recovery storms, partition churn, flaky-link windows, bridge
  topologies) executed as discrete events by a :class:`Nemesis`
  scheduler.
- :mod:`repro.faults.monitor` -- an online safety monitor stepping the
  VS, DVS and TO specifications plus CB's causal-order checks on every
  recorded action, failing fast with the full event log.
- :mod:`repro.faults.shrink` -- delta-debugging of nemesis plans: when a
  monitor trips, reduce the fault schedule to a minimal failing one and
  emit a replayable ``(seed, plan)`` repro.
- :mod:`repro.faults.harness` -- one-call chaos runs over
  :class:`repro.gcs.cluster.Cluster` (workload + nemesis + monitor),
  used by the ``repro chaos`` CLI and the chaos benchmark.
"""

from repro.faults.harness import ChaosResult, run_chaos
from repro.faults.models import (
    DelayFault,
    DropFault,
    DuplicateFault,
    LinkFault,
    OneWayBlock,
)
from repro.faults.monitor import SafetyMonitor, SafetyViolation
from repro.faults.nemesis import (
    FaultOp,
    Nemesis,
    NemesisPlan,
    bridge_topology,
    compose,
    crash_recovery_storm,
    flaky_link_windows,
    partition_churn,
)
from repro.faults.shrink import ReproCase, shrink_plan

__all__ = [
    "ChaosResult",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "FaultOp",
    "LinkFault",
    "Nemesis",
    "NemesisPlan",
    "OneWayBlock",
    "ReproCase",
    "SafetyMonitor",
    "SafetyViolation",
    "bridge_topology",
    "compose",
    "crash_recovery_storm",
    "flaky_link_windows",
    "partition_churn",
    "run_chaos",
    "shrink_plan",
]
