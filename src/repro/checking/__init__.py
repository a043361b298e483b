"""Environments, trace properties and harnesses for checking the paper.

The specifications and algorithms are *open* systems; to execute them we
close them with environment automata:

- :mod:`repro.checking.drivers` -- client drivers (send / register /
  broadcast) and view-pool generators that play the network adversary;
- :mod:`repro.checking.harness` -- one-call builders for closed systems:
  VS + clients, DVS spec + clients, DVS-IMPL + clients, TO-IMPL + clients;
- :mod:`repro.checking.trace_props` -- reusable trace-level property
  checkers (the externally visible guarantees of VS, DVS and TO).
"""

from repro.checking.drivers import (
    CbClientDriver,
    DvsClientDriver,
    SxClientDriver,
    ToClientDriver,
    VsClientDriver,
    grid_view_pool,
    random_view_pool,
)
from repro.checking.harness import (
    build_closed_cb_impl,
    build_closed_dvs_impl,
    build_closed_full_stack,
    build_closed_sx_dvs_impl,
    build_closed_sx_to_impl,
    build_closed_dvs_spec,
    build_closed_to_impl,
    build_closed_vs_spec,
)
from repro.checking.isis_property import isis_violations
from repro.checking.trace_props import (
    check_cb_trace_properties,
    check_dvs_trace_properties,
    check_to_trace_properties,
    check_vs_trace_properties,
)

__all__ = [
    "CbClientDriver",
    "DvsClientDriver",
    "SxClientDriver",
    "build_closed_full_stack",
    "build_closed_sx_dvs_impl",
    "build_closed_sx_to_impl",
    "isis_violations",
    "strategies",
    "ToClientDriver",
    "VsClientDriver",
    "build_closed_cb_impl",
    "build_closed_dvs_impl",
    "build_closed_dvs_spec",
    "build_closed_to_impl",
    "build_closed_vs_spec",
    "check_cb_trace_properties",
    "check_dvs_trace_properties",
    "check_to_trace_properties",
    "check_vs_trace_properties",
    "grid_view_pool",
    "random_view_pool",
]
