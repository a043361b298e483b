"""Reproduction of *A Dynamic View-Oriented Group Communication Service*
(De Prisco, Fekete, Lynch, Shvartsman -- PODC 1998).

The package is organized in the paper's own layers:

- :mod:`repro.ioa` -- executable I/O automata (the formal substrate);
- :mod:`repro.core` -- views, identifiers, sequences (Section 2);
- :mod:`repro.vs` -- the static view-synchronous service VS (Figure 1);
- :mod:`repro.dvs` -- the DVS specification (Figure 2), the
  ``VS-TO-DVS_p`` implementation (Figure 3), the refinement F (Figure 4)
  and the invariants of Sections 4-5;
- :mod:`repro.to` -- the TO broadcast service, ``DVS-TO-TO_p``
  (Figure 5) and the Section 6 invariants and refinement;
- :mod:`repro.checking` -- environments, harnesses and trace properties;
- :mod:`repro.net` / :mod:`repro.gcs` -- a deterministic network
  simulator and the runnable protocol stack (membership, sequencer
  ordering, dynamic primary filter, TO engine);
- :mod:`repro.membership` / :mod:`repro.analysis` -- primary-tracker
  baselines and the availability experiments;
- :mod:`repro.apps` -- replicated state machines / key-value store.

See DESIGN.md for the full inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

__version__ = "1.0.0"

from repro.core.viewids import G0, ViewId
from repro.core.views import View, make_view

__all__ = ["G0", "View", "ViewId", "__version__", "make_view"]
