"""The DVS specification automaton (Figure 2).

DVS differs from VS in three ways (Section 4):

1. ``DVS-REGISTER_p`` lets the client at p tell the service it has gathered
   whatever information it needs to operate in its current view; recorded
   in ``registered[g]``.
2. ``attempted[g]`` remembers which processes have been told about each
   view (used in the proofs); derived sets ``Att``, ``TotAtt``, ``Reg``,
   ``TotReg`` are defined from these.
3. ``DVS-CREATEVIEW(v)`` only creates *primary* views: the new view must
   intersect every created view ``w`` unless a totally registered view lies
   strictly between them (in either identifier order, since DVS allows
   out-of-order creation).

Signature::

    Input:    DVS-GPSND(m)_p           dvs_gpsnd(m, p)
              DVS-REGISTER_p           dvs_register(p)
    Output:   DVS-GPRCV(m)_{p,q}       dvs_gprcv(m, p, q)
              DVS-SAFE(m)_{p,q}        dvs_safe(m, p, q)
              DVS-NEWVIEW(v)_p         dvs_newview(v, p)
    Internal: DVS-CREATEVIEW(v)        dvs_createview(v)
              DVS-ORDER(m, p, g)       dvs_order(m, p, g)
"""

from repro.core.sequences import head, nth, remove_head
from repro.core.tables import Table
from repro.core.viewids import vid_gt, vid_lt
from repro.ioa.action import act
from repro.ioa.automaton import TransitionAutomaton
from repro.ioa.state import State


class DVSState(State):
    """State of DVS, named as in Figure 2."""

    def __init__(self, initial_view, universe):
        super().__init__(
            created={initial_view},
            current_viewid={
                p: (initial_view.id if p in initial_view.set else None)
                for p in sorted(universe)
            },
            queue=Table(list),
            attempted=Table(frozenset, {initial_view.id: initial_view.set}),
            registered=Table(frozenset, {initial_view.id: initial_view.set}),
            pending=Table(list),
            next=Table(lambda: 1),
            next_safe=Table(lambda: 1),
        )


# -- Derived variables (Figure 2) ---------------------------------------------


def attempted_views(state):
    """``Att``: created views attempted at some member."""
    return {
        v for v in state.created if state.attempted.get(v.id) & v.set
    }


def tot_att(state):
    """``TotAtt``: created views attempted at every member."""
    return {
        v for v in state.created if v.set <= state.attempted.get(v.id)
    }


def reg_views(state):
    """``Reg``: created views registered at some member."""
    return {
        v for v in state.created if state.registered.get(v.id) & v.set
    }


def tot_reg(state):
    """``TotReg``: created views registered at every member."""
    return {
        v for v in state.created if v.set <= state.registered.get(v.id)
    }


def _separated_by_tot_reg(state, low_id, high_id):
    """Whether some ``x ∈ TotReg`` has ``low_id < x.id < high_id``."""
    return any(
        vid_lt(low_id, x.id) and vid_lt(x.id, high_id)
        for x in tot_reg(state)
    )


class DVSSpec(TransitionAutomaton):
    """The DVS service automaton (Figure 2).

    As with :class:`~repro.vs.spec.VSSpec`, the internal nondeterminism of
    view creation is made executable with a finite ``view_pool``; `apply`
    itself accepts any view satisfying the Figure 2 precondition.
    """

    inputs = frozenset({"dvs_gpsnd", "dvs_register"})
    outputs = frozenset({"dvs_gprcv", "dvs_safe", "dvs_newview"})
    internals = frozenset({"dvs_createview", "dvs_order"})

    def __init__(self, initial_view, universe=None, view_pool=(), name="dvs"):
        self.name = name
        self.initial_view = initial_view
        self.view_pool = tuple(view_pool)
        members = set(initial_view.set)
        for view in self.view_pool:
            members |= view.set
        if universe is not None:
            members |= set(universe)
        self.universe = frozenset(members)

    def initial_state(self):
        return DVSState(self.initial_view, self.universe)

    def stats(self, state):
        return {"attempted_views": len(state.created),
                "totally_registered": len(tot_reg(state))}

    # -- DVS-CREATEVIEW(v) -----------------------------------------------------

    def pre_dvs_createview(self, state, v):
        """The primary-view condition of Figure 2.

        ``v.id`` must be fresh, and for every created ``w`` either a totally
        registered view separates them (in either order) or their
        memberships intersect.
        """
        if any(v.id == w.id for w in state.created):
            return False
        for w in state.created:
            if _separated_by_tot_reg(state, w.id, v.id):
                continue
            if _separated_by_tot_reg(state, v.id, w.id):
                continue
            if v.set & w.set:
                continue
            return False
        return True

    def eff_dvs_createview(self, state, v):
        state.created.add(v)

    def cand_dvs_createview(self, state):
        for view in self.view_pool:
            if self.pre_dvs_createview(state, view):
                yield act("dvs_createview", view)

    # -- DVS-NEWVIEW(v)_p --------------------------------------------------------

    def pre_dvs_newview(self, state, v, p):
        return (
            v in state.created
            and p in v.set
            and vid_gt(v.id, state.current_viewid[p])
        )

    def eff_dvs_newview(self, state, v, p):
        state.current_viewid[p] = v.id
        state.attempted[v.id] = state.attempted.get(v.id) | {p}

    def cand_dvs_newview(self, state):
        for view in sorted(state.created, key=lambda w: w.id):
            for p in sorted(view.set):
                if vid_gt(view.id, state.current_viewid[p]):
                    yield act("dvs_newview", view, p)

    # -- DVS-REGISTER_p (input) ---------------------------------------------------

    def eff_dvs_register(self, state, p):
        g = state.current_viewid.get(p)
        if g is not None:
            state.registered[g] = state.registered.get(g) | {p}

    # -- DVS-GPSND(m)_p (input) ------------------------------------------------------

    def eff_dvs_gpsnd(self, state, m, p):
        g = state.current_viewid.get(p)
        if g is not None:
            state.pending.at((p, g)).append(m)

    # -- DVS-ORDER(m, p, g) ----------------------------------------------------------

    def pre_dvs_order(self, state, m, p, g):
        return head(state.pending.get((p, g))) == m

    def eff_dvs_order(self, state, m, p, g):
        remove_head(state.pending.at((p, g)))
        state.queue.at(g).append((m, p))

    def cand_dvs_order(self, state):
        for (p, g), queue in sorted(
            state.pending.items(), key=lambda kv: repr(kv[0])
        ):
            m = head(queue)
            if m is not None:
                yield act("dvs_order", m, p, g)

    # -- DVS-GPRCV(m)_{p,q} ------------------------------------------------------------

    def pre_dvs_gprcv(self, state, m, p, q):
        g = state.current_viewid.get(q)
        if g is None:
            return False
        return nth(state.queue.get(g), state.next.get((q, g))) == (m, p)

    def eff_dvs_gprcv(self, state, m, p, q):
        g = state.current_viewid[q]
        state.next[(q, g)] = state.next.get((q, g)) + 1

    def cand_dvs_gprcv(self, state):
        for q in sorted(self.universe):
            g = state.current_viewid.get(q)
            if g is None:
                continue
            entry = nth(state.queue.get(g), state.next.get((q, g)))
            if entry is not None:
                m, p = entry
                yield act("dvs_gprcv", m, p, q)

    # -- DVS-SAFE(m)_{p,q} ------------------------------------------------------------

    def _safe_view(self, state, q):
        g = state.current_viewid.get(q)
        if g is None:
            return None
        for view in state.created:
            if view.id == g:
                return view
        return None

    def pre_dvs_safe(self, state, m, p, q):
        view = self._safe_view(state, q)
        if view is None:
            return False
        g = view.id
        ns = state.next_safe.get((q, g))
        if nth(state.queue.get(g), ns) != (m, p):
            return False
        return all(state.next.get((r, g)) > ns for r in view.set)

    def eff_dvs_safe(self, state, m, p, q):
        g = state.current_viewid[q]
        state.next_safe[(q, g)] = state.next_safe.get((q, g)) + 1

    def cand_dvs_safe(self, state):
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
                yield act("dvs_safe", m, p, q)

