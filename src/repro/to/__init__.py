"""Totally ordered broadcast over DVS (Section 6).

- :mod:`repro.to.summaries` -- labels ``L = G x N x P``, summaries
  ``S = 2^C x seqof(L) x N x G`` and the recovery functions
  (``knowncontent``, ``maxprimary``, ``chosenrep``, ``fullorder``, ...);
- :mod:`repro.to.spec` -- the TO service specification (from [12]);
- :mod:`repro.to.to_core` -- labelling, confirmation and release, the
  handlers Figure 5 shares with its Section 7 variant
  (:mod:`repro.to.sx_total_order`);
- :mod:`repro.to.dvs_to_to` -- the per-process algorithm ``DVS-TO-TO_p``
  (Figure 5);
- :mod:`repro.to.impl` -- TO-IMPL, the composition of all ``DVS-TO-TO_p``
  with DVS, DVS actions hidden;
- :mod:`repro.to.invariants` -- Invariants 6.1-6.3;
- :mod:`repro.to.refinement` -- the refinement to TO (Theorem 6.4).
"""

from repro.to.dvs_to_to import DvsToTo
from repro.to.impl import build_to_impl
from repro.to.invariants import to_impl_invariants
from repro.to.refinement import to_refinement_checker
from repro.to.spec import TOSpec
from repro.to.summaries import (
    Label,
    Summary,
    chosenrep,
    fullorder,
    knowncontent,
    maxnextconfirm,
    maxprimary,
    reps,
    shortorder,
)

__all__ = [
    "DvsToTo",
    "Label",
    "Summary",
    "TOSpec",
    "build_to_impl",
    "chosenrep",
    "fullorder",
    "knowncontent",
    "maxnextconfirm",
    "maxprimary",
    "reps",
    "shortorder",
    "to_impl_invariants",
    "to_refinement_checker",
]
