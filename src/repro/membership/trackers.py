"""Primary-component decision rules over connectivity histories.

A *tracker* consumes a sequence of configurations.  A configuration is a
partition of the currently alive processes into connected components.  For
each configuration the tracker reports which components (at most one, for
the safe rules) become primary, updating whatever per-process state the
rule maintains.  Processes keep their state across configurations; newly
joined processes start with empty knowledge.

The abstraction corresponds to running the paper's algorithms over a
network that stays stable long enough in each configuration for membership
and state exchange to complete -- the regime availability studies care
about.  ``register_lag`` models applications that need extra stable
configurations before registering (state transfer time): until a primary
view is registered, it stays "ambiguous" and constrains later primaries.
"""

import random
from abc import ABC, abstractmethod

from repro.core.viewids import ViewId
from repro.core.views import View


class PrimaryTracker(ABC):
    """Base class: feed configurations, observe primaries."""

    def __init__(self, initial_view):
        self.initial_view = initial_view
        self.epoch = initial_view.id.epoch
        self.history = []  # [(step, primary views formed)]
        self.step = 0

    def _next_view(self, members):
        self.epoch += 1
        return View(ViewId(self.epoch, min(members)), frozenset(members))

    def observe(self, components):
        """Process one configuration; return the primary views formed."""
        primaries = self._decide([frozenset(c) for c in components])
        self.history.append((self.step, primaries))
        self.step += 1
        return primaries

    @abstractmethod
    def _decide(self, components):
        """Rule-specific decision + state update."""

    # -- Metrics -----------------------------------------------------------------

    @property
    def steps_with_primary(self):
        return sum(1 for _, primaries in self.history if primaries)

    @property
    def availability(self):
        """Fraction of configurations in which some primary existed."""
        if not self.history:
            return 0.0
        return self.steps_with_primary / len(self.history)

    def disjoint_primary_incidents(self):
        """Configurations that produced two or more disjoint primaries.

        Nonzero only for unsafe rules: a sound primary notion never admits
        two simultaneous primaries with no common member.
        """
        incidents = 0
        for _, primaries in self.history:
            for i, v in enumerate(primaries):
                for w in primaries[i + 1:]:
                    if not (v.set & w.set):
                        incidents += 1
        return incidents


class StaticMajorityTracker(PrimaryTracker):
    """Primary iff the component contains a majority of a fixed universe."""

    def __init__(self, initial_view, universe=None):
        super().__init__(initial_view)
        self.universe = frozenset(
            universe if universe is not None else initial_view.set
        )

    def _decide(self, components):
        primaries = []
        for component in components:
            if len(component & self.universe) * 2 > len(self.universe):
                primaries.append(self._next_view(component))
        return primaries


class DynamicVotingTracker(PrimaryTracker):
    """The DVS / Lotem-Keidar-Dolev rule, at the membership level.

    Per-process state mirrors ``VS-TO-DVS_p``: the last view the process
    knows totally registered (``act``) and the attempted views above it
    (``amb``).  In a component, members pool this knowledge (max ``act``,
    union ``amb`` filtered above it) and accept the component as primary
    iff it majority-intersects every view in the pooled
    ``use = {act} ∪ amb``.

    ``register_lag`` (in configurations) models the application's state
    exchange: a formed primary becomes *totally registered* -- letting the
    members discard older ambiguous views -- only after its component
    survives that many further configurations unchanged.
    """

    def __init__(self, initial_view, register_lag=0, failure_prob=0.0, seed=0):
        super().__init__(initial_view)
        self.register_lag = register_lag
        self.failure_prob = failure_prob
        self.rng = random.Random(seed)
        self.act = {p: initial_view for p in initial_view.set}
        self.amb = {p: set() for p in initial_view.set}
        self._pending_registration = {}  # view -> configurations survived

    def _formation_witnesses(self, members):
        """The members at which a formation is actually recorded.

        With ``failure_prob`` > 0 a formation may be interrupted (the
        Lotem-Keidar-Dolev subtlety): only a nonempty subset of the members
        learns that the view was attempted.
        """
        members = sorted(members)
        if self.failure_prob <= 0:
            return members
        witnesses = [
            p for p in members if self.rng.random() >= self.failure_prob
        ]
        if not witnesses:
            witnesses = [self.rng.choice(members)]
        return witnesses

    def _knowledge(self, pid):
        if pid not in self.act:
            # A fresh process: it knows only the distinguished initial view
            # (the paper's model has a fixed universe P; joins are modelled
            # as processes that were silent so far).
            self.act[pid] = self.initial_view
            self.amb[pid] = set()
        return self.act[pid], self.amb[pid]

    def _decide(self, components):
        primaries = []
        registered_now = []
        for component in components:
            acts = []
            ambs = set()
            for pid in component:
                act, amb = self._knowledge(pid)
                acts.append(act)
                ambs |= amb
            best_act = max(acts, key=lambda v: v.id)
            pooled_amb = {w for w in ambs if w.id > best_act.id}
            use = {best_act} | pooled_amb
            # Every member learns the pooled knowledge (the info exchange
            # happens in every component, primary or not).
            for pid in component:
                self.act[pid] = best_act
                self.amb[pid] = set(pooled_amb)
            if all(
                len(component & w.set) * 2 > len(w.set) for w in use
            ):
                view = self._next_view(component)
                primaries.append(view)
                witnesses = self._formation_witnesses(component)
                for pid in witnesses:
                    self.amb[pid] = set(self.amb[pid]) | {view}
                complete = set(witnesses) == set(component)
                if complete and self.register_lag == 0:
                    registered_now.append(view)
                elif complete:
                    self._pending_registration[view] = 0

        # Age pending registrations; registration completes only while the
        # view's membership is still a current component.
        current = set(components)
        for view in list(self._pending_registration):
            if view.set in current:
                self._pending_registration[view] += 1
                if self._pending_registration[view] >= self.register_lag:
                    registered_now.append(view)
                    del self._pending_registration[view]
            else:
                del self._pending_registration[view]

        for view in registered_now:
            for pid in view.set:
                if self.act[pid].id < view.id:
                    self.act[pid] = view
                    self.amb[pid] = {
                        w for w in self.amb[pid] if w.id > view.id
                    }
        return primaries


class NaiveDynamicTracker(PrimaryTracker):
    """The flawed folklore rule: majority of *my* last primary.

    Each process remembers only the last primary view it belonged to.  A
    component declares itself primary when it contains a majority of the
    most recent such view among its members.  Because members' memories
    diverge across partitions -- the subtlety [18] emphasizes -- two
    disjoint components can *both* qualify, which
    :meth:`PrimaryTracker.disjoint_primary_incidents` then counts.
    """

    def __init__(self, initial_view, failure_prob=0.0, seed=0):
        super().__init__(initial_view)
        self.failure_prob = failure_prob
        self.rng = random.Random(seed)
        self.last_primary = {p: initial_view for p in initial_view.set}

    def _formation_witnesses(self, members):
        members = sorted(members)
        if self.failure_prob <= 0:
            return members
        witnesses = [
            p for p in members if self.rng.random() >= self.failure_prob
        ]
        if not witnesses:
            witnesses = [self.rng.choice(members)]
        return witnesses

    def _decide(self, components):
        primaries = []
        for component in components:
            known = [
                self.last_primary[p]
                for p in component
                if p in self.last_primary
            ]
            if not known:
                continue
            reference = max(known, key=lambda v: v.id)
            if len(component & reference.set) * 2 > len(reference.set):
                view = self._next_view(component)
                primaries.append(view)
                for pid in self._formation_witnesses(component):
                    self.last_primary[pid] = view
        return primaries
