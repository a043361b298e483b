"""Executable I/O automata (Lynch-Tuttle), the paper's formal substrate.

The paper describes all of its services and algorithms as I/O automata
(Section 2: "We describe our services and algorithms using the I/O automaton
model of Lynch and Tuttle (without fairness)").  This package provides an
executable version of that model:

- :class:`~repro.ioa.automaton.Automaton` -- automata with preconditions,
  effects and action signatures;
- :class:`~repro.ioa.composition.Composition` -- parallel composition that
  synchronizes on shared action names, plus hiding;
- :class:`~repro.ioa.execution.Execution` -- executions, steps and traces;
- :mod:`~repro.ioa.scheduler` -- the seeded random scheduler that resolves
  the choice among enabled locally controlled actions;
- :mod:`~repro.ioa.invariants` -- invariant checking along executions;
- :mod:`~repro.ioa.refinement` -- mechanized single-valued simulation
  ("refinement") checking, i.e. the proof technique of Theorem 5.9;
- :mod:`~repro.ioa.model_check` -- bounded exhaustive exploration for small
  configurations;
- :mod:`~repro.ioa.acceptor` -- is this recorded trace a trace of that spec?
"""

from repro.ioa.acceptor import Rejection, accept
from repro.ioa.action import Action, Kind, act
from repro.ioa.automaton import (
    Automaton,
    PerProcessAutomaton,
    TransitionAutomaton,
)
from repro.ioa.composition import Composition
from repro.ioa.errors import (
    ActionNotEnabled,
    CompositionError,
    InvariantViolation,
    MalformedAutomaton,
    RefinementFailure,
    UnknownAction,
)
from repro.ioa.execution import Execution, Step
from repro.ioa.invariants import InvariantSuite
from repro.ioa.model_check import BoundedExplorer, ExplorationResult
from repro.ioa.refinement import RefinementChecker
from repro.ioa.scheduler import RandomScheduler, run_random
from repro.ioa.state import State, fingerprint

__all__ = [
    "Action",
    "ActionNotEnabled",
    "Automaton",
    "BoundedExplorer",
    "Composition",
    "CompositionError",
    "Execution",
    "ExplorationResult",
    "InvariantSuite",
    "InvariantViolation",
    "MalformedAutomaton",
    "Kind",
    "PerProcessAutomaton",
    "RandomScheduler",
    "RefinementChecker",
    "RefinementFailure",
    "Rejection",
    "State",
    "Step",
    "TransitionAutomaton",
    "UnknownAction",
    "accept",
    "act",
    "fingerprint",
    "run_random",
]
