"""Closed-system builders: service + algorithm + clients + adversary.

Each builder returns a closed :class:`~repro.ioa.composition.Composition`
(every action locally controlled by some component) ready for
:func:`repro.ioa.scheduler.run_random` or the bounded explorer, plus the
sorted process list.
"""

from repro.cb.dvs_to_cb import DvsToCb
from repro.cb.impl import app_component_name as cb_app_component_name
from repro.checking.drivers import (
    CbClientDriver,
    DvsClientDriver,
    ToClientDriver,
    VsClientDriver,
)
from repro.dvs.impl import VS_EXTERNAL_ACTIONS, process_component_name
from repro.dvs.spec import DVSSpec
from repro.dvs.vs_to_dvs import VsToDvs
from repro.ioa.composition import Composition
from repro.to.dvs_to_to import DvsToTo
from repro.to.impl import DVS_EXTERNAL_ACTIONS, app_component_name
from repro.vs.spec import VSSpec


def build_closed_vs_spec(initial_view, universe, view_pool=(), budget=3):
    """VS spec + one VS client per process."""
    universe = sorted(set(universe) | set(initial_view.set))
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    clients = [VsClientDriver(p, budget=budget) for p in universe]
    system = Composition([vs] + clients, name="closed_vs")
    return system, universe


def build_closed_dvs_spec(
    initial_view, universe, view_pool=(), budget=3, eager_register=False
):
    """DVS spec + one DVS client per process."""
    universe = sorted(set(universe) | set(initial_view.set))
    dvs = DVSSpec(initial_view, universe=universe, view_pool=view_pool)
    clients = [
        DvsClientDriver(p, budget=budget, eager_register=eager_register)
        for p in universe
    ]
    system = Composition([dvs] + clients, name="closed_dvs")
    return system, universe


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
    universe = sorted(set(universe) | set(initial_view.set))
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    filters = [
        filter_factory(p, initial_view, name=process_component_name(p))
        for p in universe
    ]
    clients = [
        DvsClientDriver(p, budget=budget, eager_register=eager_register)
        for p in universe
    ]
    system = Composition(
        [vs] + filters + clients,
        hidden=VS_EXTERNAL_ACTIONS,
        name="closed_dvs_impl",
    )
    return system, universe


def build_closed_to_impl(initial_view, universe, view_pool=(), budget=2):
    """TO-IMPL (DVS spec + applications) + TO clients, DVS actions hidden."""
    universe = sorted(set(universe) | set(initial_view.set))
    dvs = DVSSpec(initial_view, universe=universe, view_pool=view_pool)
    apps = [
        DvsToTo(p, initial_view, name=app_component_name(p))
        for p in universe
    ]
    clients = [ToClientDriver(p, budget=budget) for p in universe]
    system = Composition(
        [dvs] + apps + clients,
        hidden=DVS_EXTERNAL_ACTIONS,
        name="closed_to_impl",
    )
    return system, universe


def build_closed_cb_impl(initial_view, universe, view_pool=(), budget=2):
    """CB-IMPL (DVS spec + applications) + CB clients, DVS actions hidden."""
    universe = sorted(set(universe) | set(initial_view.set))
    dvs = DVSSpec(initial_view, universe=universe, view_pool=view_pool)
    apps = [
        DvsToCb(p, initial_view, name=cb_app_component_name(p))
        for p in universe
    ]
    clients = [CbClientDriver(p, budget=budget) for p in universe]
    system = Composition(
        [dvs] + apps + clients,
        hidden=DVS_EXTERNAL_ACTIONS,
        name="closed_cb_impl",
    )
    return system, universe


def build_closed_sx_dvs_impl(initial_view, universe, view_pool=(), budget=3):
    """The SX-DVS implementation (VS + SX filters) + SX clients."""
    from repro.checking.drivers import SxClientDriver
    from repro.dvs.state_exchange import VsToSxDvs

    universe = sorted(set(universe) | set(initial_view.set))
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    filters = [
        VsToSxDvs(p, initial_view, name=process_component_name(p))
        for p in universe
    ]
    clients = [SxClientDriver(p, budget=budget) for p in universe]
    system = Composition(
        [vs] + filters + clients,
        hidden=VS_EXTERNAL_ACTIONS,
        name="closed_sx_dvs_impl",
    )
    return system, universe


SX_EXTERNAL_ACTIONS = frozenset(
    {"dvs_gpsnd", "dvs_gprcv", "dvs_safe", "dvs_newview",
     "sx_sendstate", "sx_statedelivery", "sx_statesafe"}
)


def build_closed_sx_to_impl(initial_view, universe, view_pool=(), budget=2):
    """The simplified TO application over the SX-DVS *specification*."""
    from repro.dvs.state_exchange import SXDVSSpec
    from repro.to.sx_total_order import SxTotalOrder

    universe = sorted(set(universe) | set(initial_view.set))
    sxdvs = SXDVSSpec(initial_view, universe=universe, view_pool=view_pool)
    apps = [
        SxTotalOrder(p, initial_view, name="sx_to:{0}".format(p))
        for p in universe
    ]
    clients = [ToClientDriver(p, budget=budget) for p in universe]
    system = Composition(
        [sxdvs] + apps + clients,
        hidden=SX_EXTERNAL_ACTIONS,
        name="closed_sx_to_impl",
    )
    return system, universe


def build_closed_full_stack(initial_view, universe, view_pool=(), budget=2):
    """The whole tower: TO clients over DVS-TO-TO over VS-TO-DVS over VS."""
    universe = sorted(set(universe) | set(initial_view.set))
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    filters = [
        VsToDvs(p, initial_view, name=process_component_name(p))
        for p in universe
    ]
    apps = [
        DvsToTo(p, initial_view, name=app_component_name(p))
        for p in universe
    ]
    clients = [ToClientDriver(p, budget=budget) for p in universe]
    system = Composition(
        [vs] + filters + apps + clients,
        hidden=VS_EXTERNAL_ACTIONS | DVS_EXTERNAL_ACTIONS,
        name="closed_full_stack",
    )
    return system, universe
