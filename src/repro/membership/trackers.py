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
from types import SimpleNamespace

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.dvs import rules


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


def _formation_witnesses(members, failure_prob, rng):
    """The members at which a formation is actually recorded.

    With ``failure_prob`` > 0 a formation may be interrupted (the
    Lotem-Keidar-Dolev subtlety): only a nonempty subset of the members
    learns that the view was attempted.
    """
    members = sorted(members)
    if failure_prob <= 0:
        return members
    witnesses = [p for p in members if rng.random() >= failure_prob]
    if not witnesses:
        witnesses = [rng.choice(members)]
    return witnesses


class DynamicVotingTracker(PrimaryTracker):
    """The DVS / Lotem-Keidar-Dolev rule, at the membership level.

    Per-process state is what ``VS-TO-DVS_p`` carries from view to view:
    the last view the process knows totally registered (``act``) and the
    attempted views above it (``amb``), and every decision on it is
    Figure 3's, taken by :mod:`repro.dvs.rules`.  In a component, members
    exchange this knowledge (``absorb_info``) and accept the component as
    primary iff it holds a majority of every view in the pooled
    ``use = {act} ∪ amb`` (``majority_of_use``).

    ``register_lag`` (in configurations) models the application's state
    exchange: a formed primary becomes *totally registered* -- letting the
    members discard older ambiguous views (``garbage_collect``) -- only
    after its component survives that many further configurations
    unchanged.
    """

    def __init__(self, initial_view, register_lag=0, failure_prob=0.0, seed=0):
        super().__init__(initial_view)
        self.register_lag = register_lag
        self.failure_prob = failure_prob
        self.rng = random.Random(seed)
        self.knowledge = {}  # pid -> rules.py's ``state``: act, amb
        self._pending_registration = {}  # view -> configurations survived

    def _fresh(self):
        # All a process knows before it hears anything is the
        # distinguished initial view (the paper's model has a fixed
        # universe P; joins are processes that were silent so far).
        return SimpleNamespace(act=self.initial_view, amb=set())

    def _decide(self, components):
        primaries = []
        registered_now = []
        for component in components:
            members = [
                self.knowledge.setdefault(pid, self._fresh())
                for pid in component
            ]
            # The info exchange happens in every component, primary or
            # not: every member ends up with the pooled knowledge.
            pooled = self._fresh()
            for known in members:
                rules.absorb_info(pooled, known)
            for known in members:
                rules.absorb_info(known, pooled)
            view = View(ViewId(self.epoch + 1, min(component)), component)
            if not rules.majority_of_use(pooled, view):
                continue
            self.epoch += 1
            primaries.append(view)
            witnesses = _formation_witnesses(
                component, self.failure_prob, self.rng
            )
            for pid in witnesses:
                self.knowledge[pid].amb.add(view)
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

        # Here a view's members all register in the same configuration.
        for view in registered_now:
            for pid in view.set:
                known = self.knowledge[pid]
                if rules.totally_registered(
                    known, view, view.set.__contains__
                ):
                    rules.garbage_collect(known, view)
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
                for pid in _formation_witnesses(
                    component, self.failure_prob, self.rng
                ):
                    self.last_primary[pid] = view
        return primaries
