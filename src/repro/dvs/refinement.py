"""The refinement ℱ from DVS-IMPL states to DVS states (Figure 4).

``refinement_f`` implements the function of Figure 4 literally:

- ``t.created = ∪_p s.attempted_p``
- ``t.current-viewid[p] = s.client-cur.id_p``
- ``t.registered[g] = {p | s.reg[g]_p}``
- ``t.pending[p, g] = purge(s.pending[p, g]) + purge(s.msgs-to-vs[g]_p)``
- ``t.queue[g] = purge(s.queue[g])``
- ``t.next[p, g] = s.next[p, g] - purgesize(s.queue[g](1..next[p,g]-1))
  - |s.msgs-from-vs[g]_p|``
- ``t.next-safe[p, g]`` analogously with ``safe-from-vs``

plus ``t.attempted[g] = {p | ∃v ∈ s.attempted_p : v.id = g}``, the natural
image of the history variable (Figure 4 omits it; it is forced by the step
correspondence for DVS-NEWVIEW).

``dvs_refinement_checker`` packages ℱ with the fragment hints taken from
the proof of Lemma 5.8 (e.g. a DVS-NEWVIEW(v)_p step whose view is not yet
created corresponds to CREATEVIEW(v) followed by NEWVIEW(v)_p; hidden VS
steps correspond to stutters, except VS-ORDER of a client message, which
corresponds to DVS-ORDER).  Checking an execution with it is the
mechanized Theorem 5.9.
"""

from repro.core.messages import is_client_message, purge, purgesize
from repro.core.tables import Table
from repro.dvs.impl import DvsImplState
from repro.dvs.spec import DVSSpec, DVSState
from repro.ioa.acceptor import Acceptor, accept
from repro.ioa.action import act
from repro.ioa.refinement import RefinementChecker
from repro.vs.spec import forced_order, forget_view


def refinement_f(processes, initial_view, universe, literal_safe=False):
    """Build ℱ for a DVS-IMPL instance; returns ``f(state) -> DVSState``.

    With ``literal_safe=False`` (the repaired algorithm, the default),
    ``t.next-safe[p, g]`` is read off the filter's ``safe_ptr`` history --
    the count of safe indications actually released to the client.  With
    ``literal_safe=True`` the Figure 4 formula is used
    (``s.next-safe - purgesize(...) - |safe-from-vs|``); that mapping is
    kept to *demonstrate* the Lemma 5.8 failure of the literal algorithm
    (see tests/dvs/test_safe_reconstruction.py).
    """
    universe = sorted(set(universe) | set(initial_view.set))
    processes = sorted(processes)

    def mapping(composition_state):
        impl = DvsImplState(composition_state, processes)
        vs_state = impl.vs
        t = DVSState(initial_view, universe)

        # t.created and t.attempted[g] from the history variables.
        created = set()
        attempted = {}
        for p in processes:
            for v in impl.attempted_at(p):
                created.add(v)
                attempted[v.id] = attempted.get(v.id, frozenset()) | {p}
        t.created = created
        t.attempted = Table(frozenset, attempted)

        # t.current-viewid[p] = client-cur.id_p.
        t.current_viewid = {}
        for p in universe:
            client_cur = impl.proc(p).client_cur
            t.current_viewid[p] = None if client_cur is None else client_cur.id

        # t.registered[g] = {p | reg[g]_p}.
        registered = {}
        for p in processes:
            for g, flag in impl.proc(p).reg.nondefault_items().items():
                if flag:
                    registered[g] = registered.get(g, frozenset()) | {p}
        t.registered = Table(frozenset, registered)

        # t.queue[g] = purge(s.queue[g]).
        queue = Table(list)
        for g, entries in vs_state.queue.items():
            queue[g] = purge(entries)
        t.queue = queue

        # t.pending[p, g] = purge(s.pending[p, g]) + purge(s.msgs-to-vs[g]_p).
        pending = Table(list)
        for (p, g), entries in vs_state.pending.items():
            pending[(p, g)] = purge(entries)
        for p in processes:
            for g, entries in impl.proc(p).msgs_to_vs.items():
                pending[(p, g)] = pending.get((p, g)) + purge(entries)
        t.pending = pending

        # Delivery and safe pointers, corrected for purged prefixes and
        # for messages buffered between VS and the client.
        nxt = Table(lambda: 1)
        for (p, g), n in vs_state.next.items():
            raw_queue = vs_state.queue.get(g)
            buffered = len(impl.proc(p).msgs_from_vs.get(g)) if p in processes else 0
            nxt[(p, g)] = n - purgesize(raw_queue[: n - 1]) - buffered
        t.next = nxt

        nxt_safe = Table(lambda: 1)
        if literal_safe:
            for (p, g), n in vs_state.next_safe.items():
                raw_queue = vs_state.queue.get(g)
                buffered = (
                    len(impl.proc(p).safe_from_vs.get(g))
                    if p in processes
                    else 0
                )
                nxt_safe[(p, g)] = (
                    n - purgesize(raw_queue[: n - 1]) - buffered
                )
        else:
            for p in processes:
                for g, released in (
                    impl.proc(p).safe_ptr.nondefault_items().items()
                ):
                    nxt_safe[(p, g)] = released + 1
        t.next_safe = nxt_safe

        return t

    return mapping


def dvs_forced(state, action):
    """The hidden DVS steps an external one forces: the first
    ``dvs_newview`` of an uncreated view forces ``dvs_createview``, a
    ``dvs_gprcv`` past the end of ``queue[g]`` forces ``dvs_order``."""
    if action.name == "dvs_newview" and action.params[0] not in state.created:
        return (act("dvs_createview", action.params[0]),)
    return forced_order(state, action, "dvs")


def lemma_5_8_hints(step, abstract_from):
    """The execution fragments constructed in the proof of Lemma 5.8."""
    action = step.action
    name = action.name
    if name in DVSSpec.inputs | DVSSpec.outputs:
        return [[*dvs_forced(abstract_from, action), action]]
    if name == "vs_order" and is_client_message(action.params[0]):
        return [[act("dvs_order", *action.params)]]
    # Every other step (vs_createview, vs_newview, vs_gpsnd, vs_gprcv,
    # vs_safe, dvs_garbage_collect, vs_order of a filter message)
    # corresponds to a stutter.
    return [[]]


def accept_dvs(trace, initial_view):
    """Walk ``trace`` through Figure 2: Theorem 5.9, per trace."""
    views = {a.params[0] for a in trace if a.name == "dvs_newview"}
    spec = DVSSpec(initial_view, view_pool=views)
    return accept(spec, trace, dvs_forced, forget_view)


def dvs_acceptor(initial_view):
    """Figure 2 over ``v0``'s members, to be stepped as a run goes."""
    return Acceptor(DVSSpec(initial_view), dvs_forced, forget_view)


def dvs_refinement_checker(
    processes, initial_view, universe, view_pool=(), literal_safe=False
):
    """A :class:`RefinementChecker` for Theorem 5.9.

    ``impl`` is left to the caller (the checker only needs the spec side);
    pass executions of the DVS-IMPL composition built by
    :func:`repro.dvs.impl.build_dvs_impl` with the same parameters.
    """
    spec = DVSSpec(
        initial_view, universe=universe, view_pool=view_pool, name="dvs_spec"
    )
    mapping = refinement_f(
        processes, initial_view, universe, literal_safe=literal_safe
    )
    return RefinementChecker(
        impl=None,
        spec=spec,
        mapping=mapping,
        hints=lemma_5_8_hints,
    )
