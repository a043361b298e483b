"""CB: a causal-broadcast service tier beside TO on the DVS substrate.

The TO tier of [12] pays a sequencer round-trip (label, order, safe)
for every delivery.  Many group-communication workloads -- presence,
typing indicators, commutative operation streams -- only need *causal*
order, which a process can decide locally from a vector clock carried on
the message: no sequencer, no safe-indication wait.  This package is the
causal analogue of :mod:`repro.to`, layered on the **unchanged** DVS
service: a service specification (:mod:`repro.cb.spec`), a per-process
implementation automaton over DVS (:mod:`repro.cb.dvs_to_cb`) using
view-scoped dynamic vector clocks (:mod:`repro.cb.clocks`), composition
builders (:mod:`repro.cb.impl`) and state invariants
(:mod:`repro.cb.invariants`).
"""

from repro.cb.clocks import (
    advance,
    deliverable,
    drain,
    entry,
    normalize,
    put,
    tick,
)
from repro.cb.dvs_to_cb import DvsToCb, DvsToCbState
from repro.cb.impl import CbImplState, build_cb_impl
from repro.cb.invariants import cb_impl_invariants
from repro.cb.messages import CbCast
from repro.cb.spec import CBSpec, CBState

__all__ = [
    "CBSpec",
    "CBState",
    "CbCast",
    "CbImplState",
    "DvsToCb",
    "DvsToCbState",
    "advance",
    "build_cb_impl",
    "cb_impl_invariants",
    "deliverable",
    "drain",
    "entry",
    "normalize",
    "put",
    "tick",
]
