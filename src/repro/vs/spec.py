"""VS: the static view-oriented group communication spec (Figure 1).

Signature (paper names on the left, action names here on the right)::

    Input:    VS-GPSND(m)_p            vs_gpsnd(m, p)
    Output:   VS-GPRCV(m)_{p,q}        vs_gprcv(m, p, q)
              VS-SAFE(m)_{p,q}         vs_safe(m, p, q)
              VS-NEWVIEW(v)_p          vs_newview(v, p)
    Internal: VS-CREATEVIEW(v)         vs_createview(v)
              VS-ORDER(m, p, g)        vs_order(m, p, g)

The "choose g" / "choose g, P" parameters of VS-GPRCV / VS-SAFE are
determined (g must equal ``current-viewid[q]``; P is unique by
Invariant 3.1), so they are not action parameters.

View creation is the specification's internal nondeterminism: VS may create
*arbitrary* views with increasing identifiers.  To make that
nondeterminism executable, the automaton is given a finite ``view_pool``
from which ``vs_createview`` candidates are drawn; the scheduler (or an
adversary's weighting) resolves the choice.  The pool only bounds the
*analysis*, not the semantics: ``apply`` accepts any view satisfying the
precondition.
"""

from repro.core.sequences import head, nth, remove_head
from repro.core.tables import Table
from repro.core.viewids import vid_gt
from repro.ioa.acceptor import Acceptor, accept
from repro.ioa.action import act
from repro.ioa.automaton import TransitionAutomaton
from repro.ioa.state import State


class VSState(State):
    """State of VS, named as in Figure 1.

    - ``created``: set of views, initially ``{v0}``;
    - ``current_viewid[p]``: ``G_⊥``, ``g0`` for members of ``P0``;
    - ``queue[g]``: sequence of ``(m, p)``;
    - ``pending[(p, g)]``: sequence of ``m``;
    - ``next[(p, g)]``, ``next_safe[(p, g)]``: positive integers, init 1.
    """

    def __init__(self, initial_view, universe):
        super().__init__(
            created={initial_view},
            current_viewid={
                p: (initial_view.id if p in initial_view.set else None)
                for p in sorted(universe)
            },
            queue=Table(list),
            pending=Table(list),
            next=Table(lambda: 1),
            next_safe=Table(lambda: 1),
        )


class VSSpec(TransitionAutomaton):
    """The VS service automaton (Figure 1, modified version)."""

    name = "vs"

    inputs = frozenset({"vs_gpsnd"})
    outputs = frozenset({"vs_gprcv", "vs_safe", "vs_newview"})
    internals = frozenset({"vs_createview", "vs_order"})

    def __init__(self, initial_view, universe=None, view_pool=()):
        self.initial_view = initial_view
        self.view_pool = tuple(view_pool)
        members = set(initial_view.set)
        for view in self.view_pool:
            members |= view.set
        if universe is not None:
            members |= set(universe)
        self.universe = frozenset(members)

    def initial_state(self):
        return VSState(self.initial_view, self.universe)

    # -- VS-CREATEVIEW(v) ----------------------------------------------------

    def pre_vs_createview(self, state, v):
        return all(vid_gt(v.id, w.id) for w in state.created)

    def eff_vs_createview(self, state, v):
        state.created.add(v)

    def cand_vs_createview(self, state):
        for view in self.view_pool:
            if self.pre_vs_createview(state, view):
                yield act("vs_createview", view)

    # -- VS-NEWVIEW(v)_p -----------------------------------------------------

    def pre_vs_newview(self, state, v, p):
        return (
            v in state.created
            and p in v.set
            and vid_gt(v.id, state.current_viewid[p])
        )

    def eff_vs_newview(self, state, v, p):
        state.current_viewid[p] = v.id

    def cand_vs_newview(self, state):
        for view in sorted(state.created, key=lambda w: w.id):
            for p in sorted(view.set):
                if vid_gt(view.id, state.current_viewid[p]):
                    yield act("vs_newview", view, p)

    # -- VS-GPSND(m)_p (input) -----------------------------------------------

    def eff_vs_gpsnd(self, state, m, p):
        g = state.current_viewid.get(p)
        if g is not None:
            state.pending.at((p, g)).append(m)

    # -- VS-ORDER(m, p, g) ---------------------------------------------------

    def pre_vs_order(self, state, m, p, g):
        return head(state.pending.get((p, g))) == m

    def eff_vs_order(self, state, m, p, g):
        remove_head(state.pending.at((p, g)))
        state.queue.at(g).append((m, p))

    def cand_vs_order(self, state):
        for (p, g), queue in sorted(
            state.pending.items(), key=lambda kv: repr(kv[0])
        ):
            m = head(queue)
            if m is not None:
                yield act("vs_order", m, p, g)

    # -- VS-GPRCV(m)_{p,q} (choose g) ------------------------------------------

    def pre_vs_gprcv(self, state, m, p, q):
        g = state.current_viewid.get(q)
        if g is None:
            return False
        return nth(state.queue.get(g), state.next.get((q, g))) == (m, p)

    def eff_vs_gprcv(self, state, m, p, q):
        g = state.current_viewid[q]
        state.next[(q, g)] = state.next.get((q, g)) + 1

    def cand_vs_gprcv(self, state):
        for q in sorted(self.universe):
            g = state.current_viewid.get(q)
            if g is None:
                continue
            entry = nth(state.queue.get(g), state.next.get((q, g)))
            if entry is not None:
                m, p = entry
                yield act("vs_gprcv", m, p, q)

    # -- VS-SAFE(m)_{p,q} (choose g, P) -----------------------------------------

    def _safe_view(self, state, q):
        """The view ``<g, P> ∈ created`` with ``g = current-viewid[q]``."""
        g = state.current_viewid.get(q)
        if g is None:
            return None
        for view in state.created:
            if view.id == g:
                return view
        return None

    def pre_vs_safe(self, state, m, p, q):
        view = self._safe_view(state, q)
        if view is None:
            return False
        g = view.id
        ns = state.next_safe.get((q, g))
        if nth(state.queue.get(g), ns) != (m, p):
            return False
        return all(state.next.get((r, g)) > ns for r in view.set)

    def eff_vs_safe(self, state, m, p, q):
        g = state.current_viewid[q]
        state.next_safe[(q, g)] = state.next_safe.get((q, g)) + 1

    def cand_vs_safe(self, state):
        for q in sorted(self.universe):
            view = self._safe_view(state, q)
            if view is None:
                continue
            g = view.id
            ns = state.next_safe.get((q, g))
            entry = nth(state.queue.get(g), ns)
            if entry is None:
                continue
            if all(state.next.get((r, g)) > ns for r in view.set):
                m, p = entry
                yield act("vs_safe", m, p, q)


# -- Reading a trace back (:func:`repro.ioa.acceptor.accept`) -----------------


def forced_order(state, action, prefix="vs"):
    """VS and DVS alike: a ``*_gprcv`` past the end of ``queue[g]`` forces
    ``*_order`` -- which takes the head of ``pending[p, g]`` only."""
    if action.name == prefix + "_gprcv":
        m, p, q = action.params
        g = state.current_viewid.get(q)
        if g is not None and state.next.get((q, g)) > len(state.queue.get(g)):
            return (act(prefix + "_order", m, p, g),)
    return ()


def forget_view(state, p):
    """Amnesiac rejoin (``restart(p)``): ``current-viewid[p] = ⊥``."""
    state.current_viewid[p] = None


def accept_vs(trace, initial_view):
    """Walk ``trace`` through Figure 1.  VS-CREATEVIEW wants increasing
    identifiers, so the first ``vs_newview`` of an uncreated view forces
    the creation, in identifier order, of every reported view up to it."""
    views = {a.params[0] for a in trace if a.name == "vs_newview"}

    def forced(state, action):
        view = action.params[0]
        if action.name == "vs_newview" and view not in state.created:
            below = {w for w in views - state.created if w.id < view.id}
            for w in sorted(below, key=lambda w: w.id) + [view]:
                yield act("vs_createview", w)
        yield from forced_order(state, action)

    return accept(VSSpec(initial_view, view_pool=views), trace, forced,
                  forget_view)


def vs_acceptor(initial_view):
    """Figure 1 over ``v0``'s members, to be stepped as a run goes.  With no
    look-ahead, a view's first report creates it when its id is above
    ``v0``'s and held by no created view: the VS-CREATEVIEW hoisted to
    the start of the execution (DESIGN section 6)."""
    low = initial_view.id

    def forced(state, action):
        view = action.params[0] if action.name == "vs_newview" else None
        if view is None or view in state.created:
            return forced_order(state, action)
        if vid_gt(view.id, low) and all(w.id != view.id
                                        for w in state.created):
            state.created.add(view)  # the hoisted VS-CREATEVIEW
            return ()
        return (act("vs_createview", view),)

    return Acceptor(VSSpec(initial_view), forced, forget_view)
