"""Environment automata and adversary view pools.

Clients close the service interfaces (``*_gpsnd`` / ``*_register`` /
``bcast`` are inputs of the services, so somebody must output them); view
pools feed the specifications' internal view-creation nondeterminism, which
models the network adversary deciding connectivity.
"""

import itertools
import random

from repro.core.views import View
from repro.core.viewids import ViewId
from repro.ioa.action import act
from repro.ioa.automaton import PerProcessAutomaton
from repro.ioa.state import State


class VsClientDriver(PerProcessAutomaton):
    """Client of the raw VS service at one process.

    Sends a fixed budget of distinct messages ``("m", pid, i)`` through
    ``vs_gpsnd``; absorbs deliveries.
    """

    name_prefix = "vs_client"

    inputs = frozenset({"vs_newview", "vs_gprcv", "vs_safe"})
    outputs = frozenset({"vs_gpsnd"})

    def __init__(self, pid, budget=3):
        super().__init__(pid)
        self.budget = budget

    def initial_state(self):
        return State(sent=0)

    def pre_vs_gpsnd(self, state, m, p):
        return state.sent < self.budget and m == ("m", self.pid, state.sent)

    def eff_vs_gpsnd(self, state, m, p):
        state.sent += 1

    def cand_vs_gpsnd(self, state):
        if state.sent < self.budget:
            yield act("vs_gpsnd", ("m", self.pid, state.sent), self.pid)


class DvsClientDriver(PerProcessAutomaton):
    """Client of DVS (spec or DVS-IMPL) at one process.

    Tracks the current view from ``dvs_newview``; may register the current
    view (once) and send a budget of distinct messages.  Whether and when
    to register is left to the scheduler -- the adversary controls the
    interleaving, as the specification intends.  With ``eager_register``
    the driver refuses to send before registering, modelling a disciplined
    application (like DVS-TO-TO) that completes its state exchange first.
    """

    name_prefix = "dvs_client"

    inputs = frozenset({"dvs_newview", "dvs_gprcv", "dvs_safe"})
    outputs = frozenset({"dvs_gpsnd", "dvs_register"})

    def __init__(self, pid, budget=3, eager_register=False):
        super().__init__(pid)
        self.budget = budget
        self.eager_register = eager_register

    def initial_state(self):
        return State(view=None, registered_ids=set(), sent=0, delivered=[])

    def eff_dvs_newview(self, state, v, p):
        state.view = v

    def eff_dvs_gprcv(self, state, m, q, p):
        state.delivered.append((m, q))

    def pre_dvs_register(self, state, p):
        return (
            state.view is not None
            and state.view.id not in state.registered_ids
        )

    def eff_dvs_register(self, state, p):
        state.registered_ids.add(state.view.id)

    def cand_dvs_register(self, state):
        if self.pre_dvs_register(state, self.pid):
            yield act("dvs_register", self.pid)

    def pre_dvs_gpsnd(self, state, m, p):
        if state.sent >= self.budget or m != ("m", self.pid, state.sent):
            return False
        if self.eager_register:
            return (
                state.view is not None
                and state.view.id in state.registered_ids
            )
        return True

    def eff_dvs_gpsnd(self, state, m, p):
        state.sent += 1

    def cand_dvs_gpsnd(self, state):
        candidate = ("m", self.pid, state.sent)
        if self.pre_dvs_gpsnd(state, candidate, self.pid):
            yield act("dvs_gpsnd", candidate, self.pid)


class ToClientDriver(PerProcessAutomaton):
    """Client of the TO broadcast service at one process.

    Broadcasts a budget of distinct payloads ``("a", pid, i)`` and records
    deliveries (used by the TO trace-property checks).
    """

    name_prefix = "to_client"

    inputs = frozenset({"brcv"})
    outputs = frozenset({"bcast"})

    def __init__(self, pid, budget=3):
        super().__init__(pid)
        self.budget = budget

    def initial_state(self):
        return State(sent=0, delivered=[])

    def pre_bcast(self, state, a, p):
        return state.sent < self.budget and a == ("a", self.pid, state.sent)

    def eff_bcast(self, state, a, p):
        state.sent += 1

    def cand_bcast(self, state):
        if state.sent < self.budget:
            yield act("bcast", ("a", self.pid, state.sent), self.pid)

    def eff_brcv(self, state, a, q, p):
        state.delivered.append((a, q))


class CbClientDriver(PerProcessAutomaton):
    """Client of the CB broadcast service at one process.

    Broadcasts a budget of distinct payloads ``("c", pid, i)`` and
    records deliveries (used by the CB trace-property checks).
    """

    name_prefix = "cb_client"

    inputs = frozenset({"cb_brcv"})
    outputs = frozenset({"cbcast"})

    def __init__(self, pid, budget=3):
        super().__init__(pid)
        self.budget = budget

    def initial_state(self):
        return State(sent=0, delivered=[])

    def pre_cbcast(self, state, a, p):
        return state.sent < self.budget and a == ("c", self.pid, state.sent)

    def eff_cbcast(self, state, a, p):
        state.sent += 1

    def cand_cbcast(self, state):
        if state.sent < self.budget:
            yield act("cbcast", ("c", self.pid, state.sent), self.pid)

    def eff_cb_brcv(self, state, a, q, p):
        state.delivered.append((a, q))


class SxClientDriver(PerProcessAutomaton):
    """Client of the SX-DVS variant at one process.

    Hands the service a snapshot for every view it is told about
    (``sx_sendstate``); the service's ``sx_statedelivery`` /
    ``sx_statesafe`` replace explicit registration.  Also sends a budget
    of distinct payloads, like :class:`DvsClientDriver`.
    """

    name_prefix = "sx_client"

    inputs = frozenset(
        {"dvs_newview", "dvs_gprcv", "dvs_safe",
         "sx_statedelivery", "sx_statesafe"}
    )
    outputs = frozenset({"dvs_gpsnd", "sx_sendstate"})

    def __init__(self, pid, budget=3):
        super().__init__(pid)
        self.budget = budget

    def initial_state(self):
        return State(
            view=None, sent_state_ids=set(), sent=0,
            delivered=[], bundles=[],
        )

    def eff_dvs_newview(self, state, v, p):
        state.view = v

    def eff_dvs_gprcv(self, state, m, q, p):
        state.delivered.append((m, q))

    def eff_sx_statedelivery(self, state, bundle, p):
        state.bundles.append(bundle)

    def _snapshot(self, state):
        return ("snap", self.pid, state.view.id)

    def pre_sx_sendstate(self, state, x, p):
        return (
            state.view is not None
            and state.view.id not in state.sent_state_ids
            and x == self._snapshot(state)
        )

    def eff_sx_sendstate(self, state, x, p):
        state.sent_state_ids.add(state.view.id)

    def cand_sx_sendstate(self, state):
        if (
            state.view is not None
            and state.view.id not in state.sent_state_ids
        ):
            yield act("sx_sendstate", self._snapshot(state), self.pid)

    def pre_dvs_gpsnd(self, state, m, p):
        return state.sent < self.budget and m == ("m", self.pid, state.sent)

    def eff_dvs_gpsnd(self, state, m, p):
        state.sent += 1

    def cand_dvs_gpsnd(self, state):
        if state.sent < self.budget:
            yield act("dvs_gpsnd", ("m", self.pid, state.sent), self.pid)


# -- Adversary view pools ------------------------------------------------------


def grid_view_pool(universe, max_epoch, min_size=1, origin=""):
    """Every subset of ``universe`` (of size >= min_size) at every epoch.

    Exhaustive pools for the bounded explorer; sizes grow fast, so keep
    ``universe`` and ``max_epoch`` small.
    """
    universe = sorted(universe)
    pool = []
    for epoch in range(1, max_epoch + 1):
        for size in range(min_size, len(universe) + 1):
            for members in itertools.combinations(universe, size):
                pool.append(View(ViewId(epoch, origin), frozenset(members)))
    return pool


def random_view_pool(universe, count, seed=0, min_size=1, origin=""):
    """``count`` random views with strictly increasing epochs.

    Models an adversary that repeatedly partitions and merges the system:
    each proposed view is a uniformly random subset (of size >= min_size).
    """
    rng = random.Random(seed)
    universe = sorted(universe)
    pool = []
    for epoch in range(1, count + 1):
        size = rng.randint(max(min_size, 1), len(universe))
        members = rng.sample(universe, size)
        pool.append(View(ViewId(epoch, origin), frozenset(members)))
    return pool
