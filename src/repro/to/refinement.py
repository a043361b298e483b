"""The refinement from TO-IMPL states to TO states (Theorem 6.4).

The mapping follows [12], adapted as the paper describes (Section 6.2):
the abstract ``pending[p]`` additionally carries the contents of
``delay_p`` as a tail.

- ``t.order``: the *confirmed* global order.  Each process's confirmed
  prefix is ``order_p(1..nextconfirm_p - 1)``; these prefixes are
  consistent (auxiliary invariant), so their least upper bound is the
  system-wide confirmed label sequence; mapping each label to
  ``(payload, origin)`` gives the TO order.
- ``t.next[p] = nextreport_p``.
- ``t.pending[p]``: the payloads p has broadcast that are not yet in the
  confirmed order -- the labelled-but-unconfirmed ones in label order,
  followed by the still-unlabelled ``delay_p``.
"""

from repro.core.sequences import lub
from repro.ioa.acceptor import Acceptor, accept
from repro.ioa.action import act
from repro.ioa.refinement import RefinementChecker
from repro.to.impl import ToImplState
from repro.to.spec import TOSpec, TOState


def all_confirm(impl):
    """The lub of the processes' confirmed label prefixes."""
    prefixes = []
    for p in impl.processes:
        app = impl.app(p)
        prefixes.append(list(app.order)[: app.nextconfirm - 1])
    return lub(prefixes)


def _global_content(impl):
    """Label -> payload over every process's content relation."""
    content = {}
    for p in impl.processes:
        for label, payload in impl.app(p).content:
            content[label] = payload
    return content


def to_refinement_f(processes):
    """Build the mapping F_TO(state) -> TOState."""
    processes = sorted(processes)

    def mapping(composition_state):
        impl = ToImplState(composition_state, processes)
        t = TOState(processes)

        confirmed = all_confirm(impl)
        content = _global_content(impl)
        t.order = [(content[label], label.origin) for label in confirmed]

        confirmed_set = set(confirmed)
        for p in processes:
            app = impl.app(p)
            labelled = sorted(
                label
                for label in content
                if label.origin == p and label not in confirmed_set
            )
            t.pending[p] = [content[label] for label in labelled] + list(
                app.delay
            )
            t.next[p] = app.nextreport
        return t

    return mapping


def to_hints(mapping):
    """Fragment hints for the TO step correspondence.

    ``bcast`` / ``brcv`` are trace actions of TO and map to themselves;
    a ``confirm`` step that extends the global confirmed order maps to the
    ``to_order`` of the newly confirmed message; every other step
    (labelling, DVS-internal traffic, recovery) is a stutter.
    """

    def hints(step, abstract_from):
        name = step.action.name
        if name in ("bcast", "brcv"):
            return [[step.action]]
        if name == "confirm":
            before = abstract_from.order
            after = mapping(step.next_state).order
            if len(after) == len(before) + 1:
                payload, origin = after[-1]
                return [[act("to_order", payload, origin)]]
        return [[]]

    return hints


def to_forced(state, action):
    """The same knowledge read from the trace side: a ``brcv`` past the
    end of ``order`` forces the ``to_order`` of what it delivers.  (A
    tuple, not a generator: the online monitor asks on every ``brcv``.)"""
    if action.name == "brcv":
        a, q, p = action.params
        if state.next[p] > len(state.order):
            return (act("to_order", a, q),)
    return ()


def to_restart(state, p):
    """Amnesiac rejoin (``restart(p)``): replay from ``next[p] = 1``."""
    state.next[p] = 1


def accept_to(trace, initial_view=None):
    """Walk ``trace`` through TO: Theorem 6.4's conclusion, per trace."""
    heard = [a for a in trace if a.name in ("bcast", "brcv")]
    spec = TOSpec({x for a in heard for x in a.params[1:]})
    return accept(spec, trace, to_forced, to_restart)


def to_acceptor(universe):
    """TO over ``universe``, to be stepped as a run goes."""
    return Acceptor(TOSpec(universe), to_forced, to_restart)


def to_refinement_checker(processes):
    """A :class:`RefinementChecker` for Theorem 6.4.

    Pass executions of the TO-IMPL composition built by
    :func:`repro.to.impl.build_to_impl` (composed with TO client drivers to
    close it).
    """
    processes = sorted(processes)
    spec = TOSpec(processes, name="to_spec")
    mapping = to_refinement_f(processes)
    return RefinementChecker(
        impl=None,
        spec=spec,
        mapping=mapping,
        hints=to_hints(mapping),
    )
