"""DVS-IMPL: the composition of all ``VS-TO-DVS_p`` with VS (Section 5.1).

``DVS-IMPL`` is the system "composition of all the VS-TO-DVS_p automata and
VS with all the external actions of VS hidden".  Its external signature is
therefore exactly that of the DVS specification, which is what makes the
trace-inclusion statement (Theorem 5.9) well-formed.

This module also defines the four derived variables the paper introduces
for DVS-IMPL (``Att``, ``TotAtt``, ``Reg``, ``TotReg``) and a convenience
wrapper :class:`DvsImplState` that gives the invariants and the refinement
mapping named access to the pieces of the composed state.
"""

from repro.ioa.composition import Composition
from repro.vs.spec import VSSpec
from repro.dvs.vs_to_dvs import VsToDvs

#: Names of the VS service's external actions, hidden inside DVS-IMPL.
VS_EXTERNAL_ACTIONS = frozenset(
    {"vs_gpsnd", "vs_gprcv", "vs_safe", "vs_newview"}
)


#: ``"vs_to_dvs:<pid>"``, for every filter variant.
process_component_name = VsToDvs.component_name


def build_dvs_impl(
    initial_view, universe, view_pool=(), filter_factory=VsToDvs
):
    """Construct DVS-IMPL for the given process universe.

    ``view_pool`` feeds VS's internal view-creation nondeterminism (the
    adversary's choices); see :class:`repro.vs.spec.VSSpec`.
    ``filter_factory`` lets the ablation experiments and the SX variant
    substitute their own ``VS-TO-DVS_p``.
    """
    universe = frozenset(universe) | initial_view.set
    vs = VSSpec(initial_view, universe=universe, view_pool=view_pool)
    filters = [filter_factory(pid, initial_view) for pid in sorted(universe)]
    return Composition(
        [vs] + filters, hidden=VS_EXTERNAL_ACTIONS, name="dvs_impl"
    )


class DvsImplState:
    """Named access to a DVS-IMPL composition state.

    ``impl_state.proc(p)`` is the ``VS-TO-DVS_p`` sub-state; ``.vs`` is the
    VS sub-state; the ``att`` / ``tot_att`` / ``reg_set`` / ``tot_reg``
    properties are the derived variables of Section 5.1.
    """

    def __init__(self, composition_state, processes):
        self.state = composition_state
        self.processes = sorted(processes)

    @property
    def vs(self):
        return self.state.part("vs")

    def proc(self, pid):
        return self.state.part(process_component_name(pid))

    @property
    def created(self):
        """VS's created views (the reference set for the derived variables)."""
        return self.vs.created

    def attempted_at(self, pid):
        return self.proc(pid).attempted

    def reg_at(self, pid, g):
        return self.proc(pid).reg.get(g)

    @property
    def att(self):
        """``Att = {v ∈ created | ∃p ∈ v.set: v ∈ attempted_p}``."""
        return {
            v
            for v in self.created
            if any(v in self.attempted_at(p) for p in v.set)
        }

    @property
    def tot_att(self):
        """``TotAtt = {v ∈ created | ∀p ∈ v.set: v ∈ attempted_p}``."""
        return {
            v
            for v in self.created
            if all(v in self.attempted_at(p) for p in v.set)
        }

    @property
    def reg_views(self):
        """``Reg = {v ∈ created | ∃p ∈ v.set: reg[v.id]_p}``."""
        return {
            v
            for v in self.created
            if any(self.reg_at(p, v.id) for p in v.set)
        }

    @property
    def tot_reg(self):
        """``TotReg = {v ∈ created | ∀p ∈ v.set: reg[v.id]_p}``."""
        return {
            v
            for v in self.created
            if all(self.reg_at(p, v.id) for p in v.set)
        }
