"""Recording stack events as I/O-automaton actions.

The runtime stack and the IOA coding must satisfy the same externally
visible guarantees.  An :class:`ActionLog` collects the stack's interface
events as :class:`~repro.ioa.action.Action` values using exactly the
vocabulary of the automata (``vs_newview``, ``dvs_gprcv``, ``bcast``,
``brcv``, ...; plus the host's ``restart(p)`` marker), so a stack run is
walked through the same specifications (:mod:`repro.checking.trace_props`).
"""

from repro.ioa.action import act


class ActionLog:
    """An append-only log of actions, shared across a simulation.

    With a ``clock`` callable (e.g. the network's simulated-time reader)
    each action also gets a timestamp in ``times`` (the safety monitor's
    violation reports and trace replay read them).

    A ``tracer`` (anything with ``on_action(time, name, params)``, e.g.
    :class:`repro.obs.Observability`) additionally sees every recorded
    action *and* every :meth:`probe` -- tracer-only events that never
    enter ``actions``, so the checkers keep consuming exactly the
    automaton vocabulary.
    """

    def __init__(self, clock=None, tracer=None):
        self.actions = []
        self.times = []
        self.clock = clock
        self.tracer = tracer
        #: Callables invoked as ``observer(time, action)`` on every record;
        #: online monitors (:mod:`repro.faults.monitor`) attach here and may
        #: raise to fail a run fast.
        self.observers = []

    def record(self, name, *params):
        action = act(name, *params)
        time = self.clock() if self.clock is not None else None
        self.actions.append(action)
        self.times.append(time)
        if self.tracer is not None:
            self.tracer.on_action(time, name, params)
        for observer in self.observers:
            observer(time, action)

    def probe(self, name, *params):
        """Emit a tracer-only event: timestamped like an action but kept
        out of ``actions``/``times`` (checkers never see probes)."""
        if self.tracer is None:
            return
        time = self.clock() if self.clock is not None else None
        self.tracer.on_action(time, name, params)

    def at(self, name, pid):
        """The parameters of every ``name`` recorded at ``pid``, in order,
        without the process subscript: always the *last* parameter
        (:class:`~repro.ioa.automaton.PerProcessAutomaton`'s rule)."""
        return [
            a.params[:-1] for a in self.actions
            if a.name == name and a.params[-1] == pid
        ]

    def timed_actions(self):
        return list(zip(self.times, self.actions))

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def clear(self):
        self.actions = []
        self.times = []


class RecorderMixin:
    """``_record``/``_probe`` for a layer holding an optional
    ``self.recorder`` (an :class:`ActionLog`); ``None`` is a no-op.
    The per-delivery paths test ``self.recorder`` before calling, so a
    run that records nothing does not pay a call per action."""

    def _record(self, name, *params):
        if self.recorder is not None:
            self.recorder.record(name, *params)

    def _probe(self, name, *params):
        """Tracer-only span event (never enters the action log)."""
        if self.recorder is not None:
            self.recorder.probe(name, *params)
