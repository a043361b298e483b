"""Ablated variants of ``VS-TO-DVS_p`` (experiment E7).

The paper's algorithm rests on three local mechanisms:

1. the *majority* intersection check against every view in ``use``
   (not mere nonempty intersection);
2. waiting for "info" messages from *all* other members before attempting;
3. advancing ``act`` only on *registration* evidence (all members'
   "registered" messages), not on mere attempts.

Each class below removes exactly one mechanism.  The ablation experiments
show that randomized executions then violate the DVS safety properties
(Invariant 4.1 / Invariant 5.6 -- disjoint concurrent primaries), while the
faithful algorithm never does.  This demonstrates that the paper's
invariants are not vacuous and that its preconditions are all necessary.

``StaticMajorityFilter`` is not an ablation but the *static* baseline: it
accepts a view iff the view contains a majority of the fixed universe.  It
is safe but needlessly unavailable once the population drifts -- the
quantitative comparison is experiment E6.
"""

from types import MappingProxyType

from repro.core.viewids import vid_gt
from repro.dvs import rules
from repro.dvs.vs_to_dvs import VsToDvs
from repro.gcs.dvs_layer import DvsLayer


class NoMajorityCheckVsToDvs(VsToDvs):
    """Ablation 1: require only nonempty intersection with ``use``.

    The local check is supposed to *imply* the global nonempty-intersection
    property (the key to Invariant 5.5's proof: two majorities of the same
    earlier view must meet).  Weakening it to local nonempty intersection
    breaks the implication: two chains of views can thin each other out
    until two disjoint "primaries" coexist.
    """

    def _view_acceptable(self, state, v):
        return rules.intersects_use(state, v)


class NoInfoWaitVsToDvs(VsToDvs):
    """Ablation 2: attempt views without collecting everyone's "info".

    Without hearing from all members, ``use`` may miss attempted views that
    other members know about, so the majority check is run against stale
    knowledge.
    """

    def _heard_from_all(self, state, v):
        return True


class EagerGarbageCollectVsToDvs(VsToDvs):
    """Ablation 3: garbage-collect on attempt evidence, not registration.

    ``act`` may advance as soon as the view is the process's own current
    client view, without waiting for all members' "registered" messages.
    Earlier views then stop being checked before the application has
    actually extracted their state, so a later view may miss information
    flow from a still-active older primary.
    """

    def pre_dvs_garbage_collect(self, state, v, p):
        return (
            state.client_cur is not None
            and v == state.client_cur
            and vid_gt(v.id, state.act.id)
        )

    def cand_dvs_garbage_collect(self, state):
        from repro.ioa.action import act as make_action

        if state.client_cur is not None and self.pre_dvs_garbage_collect(
            state, state.client_cur, self.pid
        ):
            yield make_action(
                "dvs_garbage_collect", state.client_cur, self.pid
            )


class StaticMajorityFilter(VsToDvs):
    """Baseline: the *static* notion of primary (Section 1).

    A view is accepted iff it contains a strict majority of the fixed
    universe (the initial view's membership).  Safe (any two majorities
    of the same universe intersect) but blind to population drift: once
    more than half the original universe has permanently departed, no
    view is ever primary again.
    """

    def _view_acceptable(self, state, v):
        universe = self.initial_view.set
        return len(v.set & universe) * 2 > len(universe)


class NoMajorityDvsLayer(DvsLayer):
    """Runtime coding of ablation 1 (for the simulated stack).

    Same broken check as :class:`NoMajorityCheckVsToDvs` -- nonempty
    intersection instead of majority intersection with every view in
    ``use`` -- but as a drop-in :class:`~repro.gcs.dvs_layer.DvsLayer`
    substitute, so chaos runs (``repro chaos --broken``) can demonstrate
    the online safety monitor catching disjoint concurrent primaries on
    the *running* system, not just the automaton.
    """

    def _view_acceptable(self, view):
        return rules.intersects_use(self, view)


#: The hosted DVS layers by trace-header name.  A live trace records
#: which one ran (``repro chaos --live --broken`` hosts the ablated
#: layer on purpose); replay must rebuild the same tower or the recorded
#: inputs would drive a different algorithm.
DVS_FACTORIES = MappingProxyType({
    "normal": DvsLayer,
    "nomajority": NoMajorityDvsLayer,
})


def dvs_factory_name(factory):
    """The trace-header name for a DVS layer factory (``None`` is the
    default layer)."""
    if factory is None:
        return "normal"
    for name, cls in DVS_FACTORIES.items():
        if factory is cls:
            return name
    raise ValueError(
        "dvs factory {0!r} is not replayable (register it in "
        "repro.dvs.ablation.DVS_FACTORIES)".format(factory)
    )
