"""DVS: the dynamic view-oriented group communication service.

- :mod:`repro.dvs.spec` -- the DVS specification automaton (Figure 2);
- :mod:`repro.dvs.vs_to_dvs` -- the per-process implementation automaton
  ``VS-TO-DVS_p`` (Figure 3);
- :mod:`repro.dvs.impl` -- DVS-IMPL, the composition of all ``VS-TO-DVS_p``
  with VS, VS actions hidden (Section 5.1);
- :mod:`repro.dvs.invariants` -- Invariants 4.1-4.2 (spec) and 5.1-5.6
  (implementation);
- :mod:`repro.dvs.refinement` -- the refinement ℱ of Figure 4 and the
  mechanized Theorem 5.9 check;
- :mod:`repro.dvs.ablation` -- deliberately broken variants of
  ``VS-TO-DVS_p`` used to show the invariants are not vacuous (E7).
"""

from repro.dvs.impl import build_dvs_impl
from repro.dvs.invariants import dvs_impl_invariants, dvs_spec_invariants
from repro.dvs.refinement import (
    dvs_refinement_checker,
    refinement_f,
)
from repro.dvs.spec import DVSSpec, DVSState, tot_reg
from repro.dvs.state_exchange import (
    SXDVSSpec,
    VsToSxDvs,
    sx_refinement_checker,
)
from repro.dvs.vs_to_dvs import AckMsg, LiteralSafeVsToDvs, VsToDvs

__all__ = [
    "AckMsg",
    "DVSSpec",
    "DVSState",
    "LiteralSafeVsToDvs",
    "SXDVSSpec",
    "VsToDvs",
    "VsToSxDvs",
    "sx_refinement_checker",
    "build_dvs_impl",
    "dvs_impl_invariants",
    "dvs_refinement_checker",
    "dvs_spec_invariants",
    "refinement_f",
    "tot_reg",
]
