"""Closed-system builders: service + algorithm + clients + adversary.

Each builder returns a closed :class:`~repro.ioa.composition.Composition`
(every action locally controlled by some component) ready for
:func:`repro.ioa.scheduler.run_random` or the bounded explorer, plus the
sorted process list.  Where the paper defines the open system
(``build_dvs_impl``, ``build_to_impl``, ...), the closed one is that
composition plus one client driver per process, with the same hiding.
"""

from repro.cb.impl import build_cb_impl
from repro.checking.drivers import (
    CbClientDriver,
    DvsClientDriver,
    SxClientDriver,
    ToClientDriver,
    VsClientDriver,
)
from repro.dvs.impl import build_dvs_impl
from repro.dvs.spec import DVSSpec
from repro.dvs.state_exchange import SXDVSSpec, VsToSxDvs
from repro.dvs.vs_to_dvs import VsToDvs
from repro.ioa.composition import Composition
from repro.to.impl import build_to_impl, build_to_over_dvs_impl
from repro.to.sx_total_order import SxTotalOrder
from repro.vs.spec import VSSpec


def _processes(initial_view, universe):
    return sorted(set(universe) | set(initial_view.set))


def _close(system, driver, initial_view, universe, name, **options):
    """``system`` plus one ``driver`` per process, same hiding."""
    processes = _processes(initial_view, universe)
    clients = [driver(p, **options) for p in processes]
    closed = Composition(
        system.components + clients, hidden=system.hidden, name=name
    )
    return closed, processes


def build_closed_vs_spec(initial_view, universe, view_pool=(), budget=3):
    """VS spec + one VS client per process."""
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    return _close(
        Composition([vs]), VsClientDriver, initial_view, universe,
        "closed_vs", budget=budget,
    )


def build_closed_dvs_spec(
    initial_view, universe, view_pool=(), budget=3, eager_register=False
):
    """DVS spec + one DVS client per process."""
    dvs = DVSSpec(initial_view, universe=universe, view_pool=view_pool)
    return _close(
        Composition([dvs]), DvsClientDriver, initial_view, universe,
        "closed_dvs", budget=budget, eager_register=eager_register,
    )


def build_closed_dvs_impl(
    initial_view,
    universe,
    view_pool=(),
    budget=3,
    eager_register=False,
    filter_factory=VsToDvs,
):
    """DVS-IMPL (VS + filters) + DVS clients, VS actions hidden.

    ``filter_factory`` lets the ablation experiments substitute broken
    variants of ``VS-TO-DVS_p``.
    """
    return _close(
        build_dvs_impl(initial_view, universe, view_pool, filter_factory),
        DvsClientDriver, initial_view, universe,
        "closed_dvs_impl", budget=budget, eager_register=eager_register,
    )


def build_closed_to_impl(initial_view, universe, view_pool=(), budget=2):
    """TO-IMPL (DVS spec + applications) + TO clients, DVS actions hidden."""
    return _close(
        build_to_impl(initial_view, universe, view_pool),
        ToClientDriver, initial_view, universe,
        "closed_to_impl", budget=budget,
    )


def build_closed_cb_impl(initial_view, universe, view_pool=(), budget=2):
    """CB-IMPL (DVS spec + applications) + CB clients, DVS actions hidden."""
    return _close(
        build_cb_impl(initial_view, universe, view_pool),
        CbClientDriver, initial_view, universe,
        "closed_cb_impl", budget=budget,
    )


def build_closed_sx_dvs_impl(initial_view, universe, view_pool=(), budget=3):
    """The SX-DVS implementation (VS + SX filters) + SX clients."""
    return _close(
        build_dvs_impl(initial_view, universe, view_pool, VsToSxDvs),
        SxClientDriver, initial_view, universe,
        "closed_sx_dvs_impl", budget=budget,
    )


SX_EXTERNAL_ACTIONS = frozenset(
    {"dvs_gpsnd", "dvs_gprcv", "dvs_safe", "dvs_newview",
     "sx_sendstate", "sx_statedelivery", "sx_statesafe"}
)


def build_closed_sx_to_impl(initial_view, universe, view_pool=(), budget=2):
    """The simplified TO application over the SX-DVS *specification*."""
    sxdvs = SXDVSSpec(initial_view, universe=universe, view_pool=view_pool)
    apps = [
        SxTotalOrder(p, initial_view)
        for p in _processes(initial_view, universe)
    ]
    return _close(
        Composition([sxdvs] + apps, hidden=SX_EXTERNAL_ACTIONS),
        ToClientDriver, initial_view, universe,
        "closed_sx_to_impl", budget=budget,
    )


def build_closed_full_stack(initial_view, universe, view_pool=(), budget=2):
    """The whole tower: TO clients over DVS-TO-TO over VS-TO-DVS over VS."""
    return _close(
        build_to_over_dvs_impl(initial_view, universe, view_pool),
        ToClientDriver, initial_view, universe,
        "closed_full_stack", budget=budget,
    )
