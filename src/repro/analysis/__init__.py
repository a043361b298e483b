"""Workloads, metrics and reporting for the quantitative experiments.

- :mod:`repro.analysis.scenarios` -- connectivity-history generators
  (random partitions over a fixed population; drifting populations with
  permanent departures and fresh joins);
- :mod:`repro.analysis.availability` -- running primary trackers over a
  scenario and collecting availability / safety metrics (experiment E6);
- :mod:`repro.analysis.report` -- plain-text table rendering used by the
  benchmark harnesses to print paper-style result tables.
"""

from repro.analysis.availability import (
    E6_REGIMES,
    AvailabilityResult,
    compare_trackers,
    e6_table,
    run_tracker,
)
from repro.analysis.report import render_table
from repro.analysis.sweeps import (
    SweepPoint,
    ascii_series,
    crossover_point,
    sweep_drift_rate,
    sweep_register_lag,
)
from repro.analysis.scenarios import drifting_population, random_churn

__all__ = [
    "AvailabilityResult",
    "E6_REGIMES",
    "SweepPoint",
    "ascii_series",
    "crossover_point",
    "sweep_drift_rate",
    "sweep_register_lag",
    "compare_trackers",
    "drifting_population",
    "e6_table",
    "random_churn",
    "render_table",
    "run_tracker",
]
