"""CB-IMPL: the composition of all ``DVS-TO-CB_p`` with DVS.

Mirrors :mod:`repro.to.impl`: the application automata compose with the
DVS *specification* (the layered-proof system).  The guarantees are
view-scoped: within any one view the composed system delivers causally,
gap-free and without duplicates; across view changes delivery is
best-effort (the invariants and the runtime safety monitor check exactly
this).
"""

from repro.cb.dvs_to_cb import DvsToCb
from repro.to.impl import AppImplState, over_dvs_spec


def build_cb_impl(initial_view, universe, view_pool=()):
    """CB-IMPL over the DVS *specification*."""
    return over_dvs_spec(DvsToCb, "cb_impl", initial_view, universe, view_pool)


class CbImplState(AppImplState):
    """Named access to a CB-IMPL composition state."""

    app_class = DvsToCb
