"""``VS-TO-DVS_p``: the per-process implementation automaton (Figure 3).

Each ``VS-TO-DVS_p`` acts as a *filter* between the client at p and the
underlying static VS service: it receives VS-NEWVIEW inputs and decides
whether to accept a proposed view as primary.  It keeps an "active" view
``act`` (the latest view it knows to be totally registered) and a set of
"ambiguous" views ``amb`` (views it knows to have been attempted with ids
above ``act``); ``use = {act} ∪ amb`` is the set of "possible previous
primary views".  When VS announces a view v, p exchanges "info" messages
carrying ``(act, amb)`` with the other members; after hearing from everyone
it checks that v has a *majority* intersection with every view in ``use``
and only then attempts v with a DVS-NEWVIEW output.

Client registrations trigger "registered" messages; when p has received
"registered" messages for a view from all its members the view is known
totally registered and p may garbage-collect (advance ``act`` and prune
``amb``).

**Safe indications.** Figure 3 forwards the underlying VS-SAFE directly to
the client.  That is *unsound* against the DVS specification: VS-SAFE
witnesses delivery to every member's **filter**, but DVS-SAFE promises
delivery to every member's **client**, and a message can sit arbitrarily
long in a filter's ``msgs-from-vs`` buffer (and be discarded outright if
that member never attempts the view).  Mechanized refinement checking
found concrete executions whose traces no DVS execution can produce --
refuting the literal Lemma 5.8 at DVS-SAFE steps (see
``tests/dvs/test_safe_reconstruction.py`` and DESIGN.md §5).  This class
therefore implements the repaired rule: each filter multicasts an "ack"
after its client consumes a message, and a safe indication for the k-th
client message of a view is released only once every member has
acknowledged k -- exactly the end-to-end evidence the DVS-SAFE
precondition demands.  :class:`LiteralSafeVsToDvs` preserves the figure's
original forwarding for the counterexample tests.

The ``attempted``, ``reg`` and ``info_sent`` variables are history
variables: needed for the paper's proofs (and our mechanized invariants),
not for the algorithm.

Parameter conventions (sender/receiver order follows the underlying
service's signature):

- ``vs_gpsnd(m, p)`` / ``dvs_gpsnd(m, p)``: sent by p;
- ``vs_gprcv(m, q, p)`` / ``vs_safe(m, q, p)``: from q, delivered at p;
- ``dvs_gprcv(m, q, p)`` / ``dvs_safe(m, q, p)``: likewise;
- ``vs_newview(v, p)`` / ``dvs_newview(v, p)``: at p;
- ``dvs_register(p)``; ``dvs_garbage_collect(v, p)``.
"""

from dataclasses import dataclass

from repro.core.messages import (
    InfoMsg,
    ProtocolMsg,
    RegisteredMsg,
    is_client_message,
)
from repro.core.sequences import head, remove_head
from repro.core.tables import Table
from repro.core.viewids import vid_gt
from repro.dvs import rules
from repro.ioa.action import act
from repro.ioa.automaton import PerProcessAutomaton
from repro.ioa.state import State

@dataclass(frozen=True)
class AckMsg(ProtocolMsg):
    """"This client has consumed ``count`` messages of the current view."""

    count: int

    def __str__(self):
        return "ack({0})".format(self.count)


class VsToDvsState(State):
    """State of ``VS-TO-DVS_p``, named as in Figure 3.

    Additional fields beyond the figure support the repaired safe rule:
    ``client_delivered[g]`` is the history of client-level deliveries in
    view g, ``acked[(q, g)]`` the highest count acknowledged by q, and
    ``safe_ptr[g]`` how many safe indications were released.
    ``safe_from_vs`` is kept for :class:`LiteralSafeVsToDvs`.
    """

    def __init__(self, pid, initial_view):
        is_initial_member = pid in initial_view.set
        super().__init__(
            cur=initial_view if is_initial_member else None,
            client_cur=initial_view if is_initial_member else None,
            act=initial_view,
            amb=set(),
            attempted={initial_view} if is_initial_member else set(),
            info_rcvd=Table(lambda: None),
            rcvd_rgst=Table(lambda: False),
            msgs_to_vs=Table(list),
            msgs_from_vs=Table(list),
            safe_from_vs=Table(list),
            reg=Table(
                lambda: False,
                {initial_view.id: True} if is_initial_member else {},
            ),
            info_sent=Table(lambda: None),
            client_delivered=Table(list),
            acked=Table(lambda: 0),
            safe_ptr=Table(lambda: 0),
        )


class VsToDvs(PerProcessAutomaton):
    """The ``VS-TO-DVS_p`` automaton for one process ``pid`` (Figure 3)."""

    name_prefix = "vs_to_dvs"

    inputs = frozenset(
        {"dvs_gpsnd", "dvs_register", "vs_newview", "vs_gprcv", "vs_safe"}
    )
    outputs = frozenset(
        {"vs_gpsnd", "dvs_newview", "dvs_gprcv", "dvs_safe"}
    )
    internals = frozenset({"dvs_garbage_collect"})

    def __init__(self, pid, initial_view):
        super().__init__(pid)
        self.initial_view = initial_view

    def initial_state(self):
        return VsToDvsState(self.pid, self.initial_view)

    # -- View management -------------------------------------------------------

    def eff_vs_newview(self, state, v, p):
        """A new view from VS: record it and send our (act, amb) info."""
        state.cur = v
        info = InfoMsg(state.act, frozenset(state.amb))
        state.msgs_to_vs.at(v.id).append(info)
        state.info_sent[v.id] = (state.act, frozenset(state.amb))

    def pre_dvs_newview(self, state, v, p):
        """The local acceptance check of Figure 3.

        v must be the current VS view, newer than what the client already
        has, all other members' "info" for v must have arrived, and v must
        majority-intersect every view in ``use``.
        """
        if state.cur is None or v != state.cur:
            return False
        client_id = None if state.client_cur is None else state.client_cur.id
        return (
            vid_gt(v.id, client_id)
            and self._heard_from_all(state, v)
            and self._view_acceptable(state, v)
        )

    def _heard_from_all(self, state, v):
        """Every other member's "info" for v has arrived."""
        return rules.heard_from_all(
            v, self.pid,
            lambda q: state.info_rcvd.get((q, v.id)) is not None,
        )

    def _view_acceptable(self, state, v):
        """v holds a majority of every possible previous primary."""
        return rules.majority_of_use(state, v)

    def eff_dvs_newview(self, state, v, p):
        state.amb.add(v)
        state.attempted.add(v)
        state.client_cur = v

    def cand_dvs_newview(self, state):
        if state.cur is not None and self.pre_dvs_newview(
            state, state.cur, self.pid
        ):
            yield act("dvs_newview", state.cur, self.pid)

    # -- Info exchange ------------------------------------------------------------

    def _receive_info(self, state, info, q):
        if state.cur is None:
            return
        state.info_rcvd[(q, state.cur.id)] = (info.act, info.amb)
        rules.absorb_info(state, info)

    # -- Registration ---------------------------------------------------------------

    def eff_dvs_register(self, state, p):
        if state.client_cur is not None:
            state.reg[state.client_cur.id] = True
            state.msgs_to_vs.at(state.client_cur.id).append(RegisteredMsg())

    def _receive_registered(self, state, q):
        if state.cur is None:
            return
        state.rcvd_rgst[(q, state.cur.id)] = True

    def pre_dvs_garbage_collect(self, state, v, p):
        """All members' "registered" messages for v seen, and v advances
        act (the monotonicity condition is implicit in Figure 3)."""
        return rules.totally_registered(
            state, v, lambda q: state.rcvd_rgst.get((q, v.id))
        )

    def eff_dvs_garbage_collect(self, state, v, p):
        rules.garbage_collect(state, v)

    def cand_dvs_garbage_collect(self, state):
        known = set(state.amb)
        if state.cur is not None:
            known.add(state.cur)
        for v in sorted(known, key=lambda w: w.id):
            if self.pre_dvs_garbage_collect(state, v, self.pid):
                yield act("dvs_garbage_collect", v, self.pid)

    # -- Client messages downward ------------------------------------------------------

    def eff_dvs_gpsnd(self, state, m, p):
        if state.client_cur is not None:
            state.msgs_to_vs.at(state.client_cur.id).append(m)

    def pre_vs_gpsnd(self, state, m, p):
        if state.cur is None:
            return False
        return head(state.msgs_to_vs.get(state.cur.id)) == m

    def eff_vs_gpsnd(self, state, m, p):
        remove_head(state.msgs_to_vs.at(state.cur.id))

    def cand_vs_gpsnd(self, state):
        if state.cur is None:
            return
        m = head(state.msgs_to_vs.get(state.cur.id))
        if m is not None:
            yield act("vs_gpsnd", m, self.pid)

    # -- Deliveries upward ----------------------------------------------------------------

    def eff_vs_gprcv(self, state, m, q, p):
        if isinstance(m, InfoMsg):
            self._receive_info(state, m, q)
        elif isinstance(m, RegisteredMsg):
            self._receive_registered(state, q)
        elif isinstance(m, AckMsg):
            self._receive_ack(state, m, q)
        else:
            if state.cur is not None:
                state.msgs_from_vs.at(state.cur.id).append((m, q))

    def eff_vs_safe(self, state, m, q, p):
        """VS-level stability: ignored by the repaired safe rule.

        VS-SAFE only witnesses filter-level delivery; the repaired rule
        derives client-level stability from the "ack" messages instead.
        :class:`LiteralSafeVsToDvs` restores Figure 3's forwarding.
        """

    def pre_dvs_gprcv(self, state, m, q, p):
        if state.client_cur is None:
            return False
        return head(state.msgs_from_vs.get(state.client_cur.id)) == (m, q)

    def eff_dvs_gprcv(self, state, m, q, p):
        g = state.client_cur.id
        entry = remove_head(state.msgs_from_vs.at(g))
        state.client_delivered.at(g).append(entry)
        state.msgs_to_vs.at(g).append(
            AckMsg(len(state.client_delivered.get(g)))
        )

    def cand_dvs_gprcv(self, state):
        if state.client_cur is None:
            return
        entry = head(state.msgs_from_vs.get(state.client_cur.id))
        if entry is not None:
            m, q = entry
            yield act("dvs_gprcv", m, q, self.pid)

    # -- Safe indications (repaired rule: end-to-end acknowledgments) ---------

    def _receive_ack(self, state, ack, q):
        if state.cur is None:
            return
        key = (q, state.cur.id)
        if ack.count > state.acked.get(key):
            state.acked[key] = ack.count

    def _next_safe_entry(self, state):
        """The next (m, q) releasable as safe, or None."""
        view = state.client_cur
        if view is None:
            return None
        g = view.id
        k = state.safe_ptr.get(g)
        history = state.client_delivered.get(g)
        if k >= len(history):
            return None
        if all(state.acked.get((r, g)) >= k + 1 for r in view.set):
            return tuple(history[k])
        return None

    def pre_dvs_safe(self, state, m, q, p):
        return self._next_safe_entry(state) == (m, q)

    def eff_dvs_safe(self, state, m, q, p):
        g = state.client_cur.id
        state.safe_ptr[g] = state.safe_ptr.get(g) + 1

    def cand_dvs_safe(self, state):
        entry = self._next_safe_entry(state)
        if entry is not None:
            m, q = entry
            yield act("dvs_safe", m, q, self.pid)


class LiteralSafeVsToDvs(VsToDvs):
    """Figure 3, literally: VS-SAFE forwarded straight to the client.

    Preserved for the counterexample tests: against the refinement of
    Figure 4 this variant emits DVS-SAFE indications whose traces the DVS
    specification cannot produce (a member's client may never receive the
    supposedly-safe message).  Do not use in applications.
    """

    def eff_vs_safe(self, state, m, q, p):
        if is_client_message(m) and state.cur is not None:
            state.safe_from_vs.at(state.cur.id).append((m, q))

    def eff_dvs_gprcv(self, state, m, q, p):
        # Figure 3's effect only (no ack machinery).
        remove_head(state.msgs_from_vs.at(state.client_cur.id))

    def pre_dvs_safe(self, state, m, q, p):
        if state.client_cur is None:
            return False
        return head(state.safe_from_vs.get(state.client_cur.id)) == (m, q)

    def eff_dvs_safe(self, state, m, q, p):
        remove_head(state.safe_from_vs.at(state.client_cur.id))

    def cand_dvs_safe(self, state):
        if state.client_cur is None:
            return
        entry = head(state.safe_from_vs.get(state.client_cur.id))
        if entry is not None:
            m, q = entry
            yield act("dvs_safe", m, q, self.pid)
