"""SX-DVS: DVS with service-supported state exchange (Section 7).

The paper's discussion proposes "variations on the DVS specification, for
example, one in which the state exchange at the beginning of a new view is
supported by the dynamic view service".  This module builds that variation
end to end:

- :class:`SXDVSSpec` -- the specification.  Instead of an opaque
  ``DVS-REGISTER``, the client at p hands the service a *state snapshot*
  (``sx_sendstate``); once every member of p's view has done so, the
  service delivers the full bundle to p (``sx_statedelivery``), which *is*
  p's registration; and once every member has received the bundle the
  service tells p so (``sx_statesafe``).  ``TotReg`` and the dynamic
  primary-creation precondition are exactly as in DVS, so Invariant 4.1
  carries over verbatim.
- :class:`VsToSxDvs` -- the implementation: ``VS-TO-DVS_p`` extended to
  carry snapshots in "state" messages over VS; a member delivers the
  bundle when it holds all members' snapshots, announces it with the
  existing "registered" message, and reports the exchange safe when it has
  everyone's announcement (the same evidence that already drives garbage
  collection).
- :func:`sx_refinement_checker` -- the refinement of the implementation to
  :class:`SXDVSSpec`, in the style of Figure 4.

The payoff is in :mod:`repro.to.sx_total_order`: the totally-ordered
broadcast application over SX-DVS loses its whole recovery state machine
(``status``/``gotstate``/``safe-exch``) -- the service runs it.
"""

from dataclasses import dataclass

from repro.core.messages import ProtocolMsg, RegisteredMsg
from repro.core.tables import Table
from repro.dvs.spec import DVSSpec, DVSState
from repro.dvs.vs_to_dvs import VsToDvs
from repro.ioa.action import act
from repro.ioa.refinement import RefinementChecker


@dataclass(frozen=True)
class StateMsg(ProtocolMsg):
    """A snapshot travelling in the implementation's "state" messages."""

    snapshot: object

    def __str__(self):
        return "state({0})".format(self.snapshot)


def bundle_of(snapshots):
    """Canonical hashable form of a member->snapshot map."""
    return tuple(sorted(snapshots.items()))


class SXDVSState(DVSState):
    """DVS state plus the exchange bookkeeping."""

    def __init__(self, initial_view, universe):
        super().__init__(initial_view, universe)
        # snapshots[g]: tuple-of-pairs map member -> snapshot.  The
        # initial view starts fully exchanged (with empty snapshots), the
        # counterpart of its members starting registered.
        self.snapshots = Table(
            tuple,
            {initial_view.id: bundle_of({p: None for p in initial_view.set})},
        )
        # statesafe[g]: members already told the exchange is safe.
        self.statesafe = Table(frozenset)


class SXDVSSpec(DVSSpec):
    """The SX-DVS specification automaton.

    Registration is not an input any more: ``registered[g]`` grows when
    the service performs ``sx_statedelivery`` -- the client *received* the
    information it needs, rather than merely asserting it did.
    """

    inputs = frozenset({"dvs_gpsnd", "sx_sendstate"})
    outputs = frozenset(
        {"dvs_gprcv", "dvs_safe", "dvs_newview",
         "sx_statedelivery", "sx_statesafe"}
    )
    internals = frozenset({"dvs_createview", "dvs_order"})

    def initial_state(self):
        return SXDVSState(self.initial_view, self.universe)

    # -- sx_sendstate(x)_p (input) ------------------------------------------------

    def eff_sx_sendstate(self, state, x, p):
        g = state.current_viewid.get(p)
        if g is None:
            return
        current = dict(state.snapshots.get(g))
        if p not in current:
            current[p] = x
            state.snapshots[g] = bundle_of(current)

    # -- sx_statedelivery(Y)_p ---------------------------------------------------------

    def _view_of(self, state, g):
        for view in state.created:
            if view.id == g:
                return view
        return None

    def pre_sx_statedelivery(self, state, bundle, p):
        g = state.current_viewid.get(p)
        if g is None:
            return False
        view = self._view_of(state, g)
        if view is None:
            return False
        snapshots = dict(state.snapshots.get(g))
        return (
            set(snapshots) == set(view.set)
            and bundle == bundle_of(snapshots)
            and p not in state.registered.get(g)
        )

    def eff_sx_statedelivery(self, state, bundle, p):
        g = state.current_viewid[p]
        state.registered[g] = state.registered.get(g) | {p}

    def cand_sx_statedelivery(self, state):
        for p in sorted(self.universe):
            g = state.current_viewid.get(p)
            if g is None:
                continue
            view = self._view_of(state, g)
            if view is None:
                continue
            snapshots = dict(state.snapshots.get(g))
            if set(snapshots) == set(view.set) and p not in state.registered.get(g):
                yield act("sx_statedelivery", bundle_of(snapshots), p)

    # -- sx_statesafe()_p ------------------------------------------------------------------

    def pre_sx_statesafe(self, state, p):
        g = state.current_viewid.get(p)
        if g is None:
            return False
        view = self._view_of(state, g)
        if view is None:
            return False
        return (
            view.set <= state.registered.get(g)
            and p not in state.statesafe.get(g)
        )

    def eff_sx_statesafe(self, state, p):
        g = state.current_viewid[p]
        state.statesafe[g] = state.statesafe.get(g) | {p}

    def cand_sx_statesafe(self, state):
        for p in sorted(self.universe):
            if self.pre_sx_statesafe(state, p):
                yield act("sx_statesafe", p)


class VsToSxDvs(VsToDvs):
    """``VS-TO-SXDVS_p``: the filter with service-run state exchange."""

    inputs = frozenset(
        {"dvs_gpsnd", "sx_sendstate", "vs_newview", "vs_gprcv", "vs_safe"}
    )
    outputs = frozenset(
        {"vs_gpsnd", "dvs_newview", "dvs_gprcv", "dvs_safe",
         "sx_statedelivery", "sx_statesafe"}
    )
    internals = frozenset({"dvs_garbage_collect"})

    def initial_state(self):
        state = super().initial_state()
        # snap_sent[g]: the snapshot this process handed in for view g.
        state.snap_sent = Table(lambda: None)
        # states_rcvd[(q, g)]: q's snapshot for view g.
        state.states_rcvd = Table(lambda: None)
        # delivered_bundle[g] / reported_safe[g]: local exchange progress.
        state.delivered_bundle = Table(lambda: False)
        state.reported_safe = Table(lambda: False)
        if self.pid in self.initial_view.set:
            state.snap_sent[self.initial_view.id] = StateMsg(None)
            state.states_rcvd[(self.pid, self.initial_view.id)] = (
                StateMsg(None)
            )
            state.delivered_bundle[self.initial_view.id] = True
        return state

    # -- Client hands in its snapshot ---------------------------------------------

    def eff_sx_sendstate(self, state, x, p):
        if state.client_cur is None:
            return
        g = state.client_cur.id
        if state.snap_sent.get(g) is not None:
            return
        message = StateMsg(x)
        state.snap_sent[g] = message
        state.msgs_to_vs.at(g).append(message)

    # -- Receiving snapshots over VS -------------------------------------------------

    def eff_vs_gprcv(self, state, m, q, p):
        if isinstance(m, StateMsg):
            if state.cur is not None:
                state.states_rcvd[(q, state.cur.id)] = m
            return
        super().eff_vs_gprcv(state, m, q, p)

    def eff_vs_safe(self, state, m, q, p):
        if isinstance(m, StateMsg):
            return
        super().eff_vs_safe(state, m, q, p)

    # -- Delivering the bundle ----------------------------------------------------------

    def _local_bundle(self, state):
        """The member->snapshot map for the current view, if complete."""
        view = state.client_cur
        if view is None or state.cur is None or view.id != state.cur.id:
            return None
        snapshots = {}
        for q in view.set:
            message = state.states_rcvd.get((q, view.id))
            if message is None:
                return None
            snapshots[q] = message.snapshot
        return snapshots

    def pre_sx_statedelivery(self, state, bundle, p):
        if state.delivered_bundle.get(
            None if state.client_cur is None else state.client_cur.id
        ):
            return False
        snapshots = self._local_bundle(state)
        return snapshots is not None and bundle == bundle_of(snapshots)

    def eff_sx_statedelivery(self, state, bundle, p):
        g = state.client_cur.id
        state.delivered_bundle[g] = True
        state.reg[g] = True
        state.msgs_to_vs.at(g).append(RegisteredMsg())

    def cand_sx_statedelivery(self, state):
        snapshots = self._local_bundle(state)
        if snapshots is None:
            return
        if state.delivered_bundle.get(state.client_cur.id):
            return
        yield act("sx_statedelivery", bundle_of(snapshots), self.pid)

    # -- Reporting the exchange safe ---------------------------------------------------------

    def pre_sx_statesafe(self, state, p):
        view = state.client_cur
        if view is None or state.cur is None or view.id != state.cur.id:
            return False
        if not state.delivered_bundle.get(view.id):
            return False
        if state.reported_safe.get(view.id):
            return False
        return all(state.rcvd_rgst.get((q, view.id)) for q in view.set)

    def eff_sx_statesafe(self, state, p):
        state.reported_safe[state.client_cur.id] = True

    def cand_sx_statesafe(self, state):
        if self.pre_sx_statesafe(state, self.pid):
            yield act("sx_statesafe", self.pid)


# -- Refinement to SXDVSSpec -----------------------------------------------------------


def sx_refinement_f(processes, initial_view, universe):
    """ℱ for the SX variant: Figure 4 plus the exchange components."""
    from repro.dvs.refinement import refinement_f

    base = refinement_f(processes, initial_view, universe)
    processes = sorted(processes)

    def mapping(composition_state):
        t_base = base(composition_state)
        t = SXDVSState(initial_view, sorted(set(universe) | set(initial_view.set)))
        for key, value in t_base.__dict__.items():
            setattr(t, key, value)

        snapshots = {}
        statesafe = {}
        for p in processes:
            proc = composition_state.part(VsToSxDvs.component_name(p))
            for g, message in proc.snap_sent.nondefault_items().items():
                current = snapshots.setdefault(g, {})
                current[p] = message.snapshot
            for g, done in proc.reported_safe.nondefault_items().items():
                if done:
                    statesafe[g] = statesafe.get(g, frozenset()) | {p}
        t.snapshots = Table(
            tuple, {g: bundle_of(m) for g, m in snapshots.items()}
        )
        t.statesafe = Table(frozenset, statesafe)
        return t

    return mapping


def sx_hints(step, abstract_from):
    """Lemma 5.8's fragments, extended with the exchange actions."""
    from repro.dvs.refinement import lemma_5_8_hints

    name = step.action.name
    if name in ("sx_sendstate", "sx_statedelivery", "sx_statesafe"):
        return [[step.action]]
    return lemma_5_8_hints(step, abstract_from)


def sx_refinement_checker(processes, initial_view, universe):
    """Refinement checker: the SX implementation refines SXDVSSpec."""
    spec = SXDVSSpec(initial_view, universe=universe, name="sxdvs_spec")
    return RefinementChecker(
        impl=None,
        spec=spec,
        mapping=sx_refinement_f(processes, initial_view, universe),
        hints=sx_hints,
    )
