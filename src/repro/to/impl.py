"""TO-IMPL: the composition of all ``DVS-TO-TO_p`` with DVS (Section 6.1).

"The system TO-IMPL is the composition of all the DVS-TO-TO_p automata and
DVS with all the external actions of DVS hidden."  Here DVS is the
*specification* automaton: the paper's layered proof verifies the
application against the service spec, and Theorem 5.9 separately justifies
replacing the spec by DVS-IMPL.  (The full-stack composition -- DVS-TO-TO
over VS-TO-DVS over VS -- is also buildable; see
:func:`build_to_over_dvs_impl`.)
"""

from repro.dvs.impl import build_dvs_impl
from repro.dvs.spec import DVSSpec
from repro.ioa.composition import Composition
from repro.to.dvs_to_to import DvsToTo
from repro.to.summaries import Summary

#: Names of the DVS service's external actions, hidden inside TO-IMPL.
DVS_EXTERNAL_ACTIONS = frozenset(
    {"dvs_gpsnd", "dvs_gprcv", "dvs_safe", "dvs_newview", "dvs_register"}
)


def _with_apps(service, hidden, app_class, initial_view, universe, name):
    apps = [app_class(pid, initial_view) for pid in sorted(universe)]
    return Composition(
        service + apps, hidden=hidden | DVS_EXTERNAL_ACTIONS, name=name
    )


def over_dvs_spec(app_class, name, initial_view, universe, view_pool=()):
    """One ``app_class`` automaton per process over the DVS
    *specification*, with all the external actions of DVS hidden."""
    universe = frozenset(universe) | initial_view.set
    dvs = DVSSpec(initial_view, universe=universe, view_pool=view_pool)
    return _with_apps(
        [dvs], frozenset(), app_class, initial_view, universe, name
    )


def build_to_impl(initial_view, universe, view_pool=()):
    """TO-IMPL over the DVS *specification* (the paper's Section 6 system)."""
    return over_dvs_spec(DvsToTo, "to_impl", initial_view, universe, view_pool)


def build_to_over_dvs_impl(initial_view, universe, view_pool=()):
    """The full stack: DVS-TO-TO over VS-TO-DVS over VS, with everything
    below the application's own interface hidden.

    This is the end-to-end system a deployment would run; the paper's two
    theorems compose to show its traces are TO traces.  We check that
    directly as well (tests/integration/test_full_stack.py).
    """
    universe = frozenset(universe) | initial_view.set
    dvs_impl = build_dvs_impl(initial_view, universe, view_pool=view_pool)
    return _with_apps(
        dvs_impl.components, dvs_impl.hidden, DvsToTo, initial_view,
        universe, "to_over_dvs_impl",
    )


class AppImplState:
    """Named access to the state of DVS composed with one ``app_class``
    automaton per process (TO-IMPL, CB-IMPL)."""

    app_class = None

    def __init__(self, composition_state, processes):
        self.state = composition_state
        self.processes = sorted(processes)

    @property
    def dvs(self):
        return self.state.part("dvs")

    def app(self, pid):
        return self.state.part(self.app_class.component_name(pid))


class ToImplState(AppImplState):
    """Named access to a TO-IMPL composition state."""

    app_class = DvsToTo

    @property
    def created(self):
        return self.dvs.created

    def allstate(self):
        """Every summary present anywhere in the system state.

        Summaries live in the DVS pending queues, in the per-view DVS
        message queues, and in the ``gotstate`` maps of the application
        processes.  (The paper's ``allstate`` derived variable, defined as
        in [12].)
        """
        summaries = set()
        for _, entries in self.dvs.pending.items():
            for m in entries:
                if isinstance(m, Summary):
                    summaries.add(m)
        for _, entries in self.dvs.queue.items():
            for m, _sender in entries:
                if isinstance(m, Summary):
                    summaries.add(m)
        for pid in self.processes:
            for summary in self.app(pid).gotstate.values():
                summaries.add(summary)
        return summaries
