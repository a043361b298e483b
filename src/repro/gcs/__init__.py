"""A runnable group-communication stack on the network simulator.

The paper's algorithms are specified as I/O automata over an abstract VS
service.  This package is the *system* coding of the same stack: concrete
protocol nodes exchanging messages over :class:`repro.net.Network`:

- :mod:`repro.gcs.vs_stack` -- a view-synchronous service implementation:
  coordinator-based membership (epoch collection + install) and per-view
  sequencer total order with all-ack stability, providing the VS interface
  (``gpsnd`` down; ``newview`` / ``gprcv`` / ``safe`` up);
- :mod:`repro.gcs.dvs_layer` -- the runtime coding of ``VS-TO-DVS_p``
  (dynamic primary filtering with info exchange, majority checks,
  registration and garbage collection);
- :mod:`repro.gcs.to_layer` -- the runtime coding of ``DVS-TO-TO_p``
  (labelling, tentative order, confirmation, state-exchange recovery);
- :mod:`repro.gcs.cb_layer` -- the runtime coding of ``DVS-TO-CB_p``
  (view-scoped vector clocks, hold-back release at delivery time) plus
  the fanout that lets the TO and CB towers share one DVS layer;
- :mod:`repro.gcs.tower` -- ``Tower``, the one wiring of the layers
  above into a per-process tower, shared by every host;
- :mod:`repro.gcs.recorder` -- converts the stack's events into the same
  action vocabulary as the automata, so the trace-property checkers apply
  verbatim to stack runs.

The stack's view changes are triggered by the simulator's connectivity
oracle (a perfect failure detector); this substitutes for timeout-based
detection and affects liveness/timing only, never the safety properties
checked by the test suite.
"""

from repro.gcs.cb_layer import CbLayer, CbListener, DvsFanout
from repro.gcs.dvs_layer import DvsLayer, DvsListener
from repro.gcs.effect_check import (
    EffectIsolationChecker,
    EffectIsolationError,
)
from repro.gcs.recorder import ActionLog
from repro.gcs.to_layer import ToLayer, ToListener
from repro.gcs.tower import Tower
from repro.gcs.vs_stack import VsListener, VsStackNode

__all__ = [
    "ActionLog",
    "CbLayer",
    "CbListener",
    "DvsFanout",
    "DvsLayer",
    "DvsListener",
    "EffectIsolationChecker",
    "EffectIsolationError",
    "ToLayer",
    "ToListener",
    "Tower",
    "VsListener",
    "VsStackNode",
]
