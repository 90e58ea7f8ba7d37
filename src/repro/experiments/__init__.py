"""One run of each kind, its result types, tracking metrics and report tables.

Each experiment of the paper's evaluation (Section 9) is a grid of single
runs; this package runs one cell and returns a plain result object carrying
the data series the corresponding figure shows:

* :func:`repro.experiments.stationary.run_stationary_point` -- one point of
  the stationary load/throughput curves with and without control (Figures 1
  and 12), collected into a :class:`StationarySweep` per curve;
* :func:`repro.experiments.dynamic.run_tracking_experiment` -- the
  trajectory of the load threshold under jump-like or sinusoidal workload
  changes (Figures 13 and 14 and the sinusoidal study);
* :mod:`repro.experiments.tracking` -- tracking-error metrics used to
  compare IS and PA quantitatively;
* :mod:`repro.experiments.report` -- plain-text tables for printing the
  series in benchmark output and examples.

The grids themselves -- which cells a figure runs, over how many workers
and replicates -- are built and run by :mod:`repro.runner`
(:func:`repro.runner.run_sweep`), which imports this package, never the
other way round.

Scale: every experiment takes an :class:`ExperimentScale` so the full,
paper-sized runs and quick smoke-test runs share one code path.
"""

from repro.experiments.config import (
    ExperimentScale,
    contention_bound_params,
    default_system_params,
)
from repro.experiments.dynamic import (
    TrackingResult,
    jump_scenario,
    run_synthetic_tracking,
    run_tracking_experiment,
    sinusoid_scenario,
)
from repro.experiments.stationary import (
    StationaryPoint,
    StationarySweep,
    run_stationary_point,
)
from repro.experiments.tracking import TrackingMetrics, compute_tracking_metrics
from repro.experiments.report import (
    format_aggregate_table,
    format_comparison,
    format_series_table,
    format_sweep_table,
    format_table,
)

__all__ = [
    "ExperimentScale",
    "default_system_params",
    "contention_bound_params",
    "StationaryPoint",
    "StationarySweep",
    "run_stationary_point",
    "TrackingResult",
    "run_tracking_experiment",
    "run_synthetic_tracking",
    "jump_scenario",
    "sinusoid_scenario",
    "TrackingMetrics",
    "compute_tracking_metrics",
    "format_aggregate_table",
    "format_comparison",
    "format_series_table",
    "format_sweep_table",
    "format_table",
]
