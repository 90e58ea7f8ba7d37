"""Parallel experiment orchestration.

The paper's evaluation is a grid of independent simulation cells — offered
load × controller × scenario × replicate.  This package turns that grid
into data (:mod:`~repro.runner.specs`), executes it serially or over local
dist workers with deterministic, common-random-numbers seed discipline
(:mod:`~repro.runner.executor`, :mod:`~repro.runner.cells`),
folds replicated runs into mean ± confidence-interval summaries
(:mod:`~repro.runner.replication`), and names the paper's experiments so a
whole figure is one call (:mod:`~repro.runner.registry`,
:func:`~repro.runner.api.run_sweep`).

The two invariants everything here is built around:

* **determinism** — a cell's results depend only on its spec (parameters,
  seed, replicate index), never on which worker ran it, how many workers
  there are, or in which order cells finish;
* **independence** — replicate streams are derived per (seed, replicate,
  stream name), so replicates are statistically independent while the
  common-random-numbers structure across controllers is preserved.
"""

from repro.cc.registry import CCSpec, cc_kinds
from repro.runner.api import (
    SweepResult,
    run_sweep,
    stationary_sweeps,
    tracking_results,
)
from repro.runner.cells import CellResult, execute_run_spec, replicate_streams
from repro.runner.errors import (
    CellExecutionError,
    describe_item,
    run_with_cell_context,
)
from repro.runner.executor import SerialExecutor, make_executor
from repro.runner.registry import available_scenarios, build_sweep
from repro.runner.replication import (
    CellAggregate,
    MetricAggregate,
    aggregate_cells,
    aggregate_values,
    t_critical,
)
from repro.runner.specs import (
    KIND_STATIONARY,
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    SweepSpec,
    controller_kinds,
)

__all__ = [
    "SweepResult",
    "run_sweep",
    "stationary_sweeps",
    "tracking_results",
    "CellResult",
    "execute_run_spec",
    "replicate_streams",
    "CellExecutionError",
    "describe_item",
    "run_with_cell_context",
    "SerialExecutor",
    "make_executor",
    "available_scenarios",
    "build_sweep",
    "CellAggregate",
    "MetricAggregate",
    "aggregate_cells",
    "aggregate_values",
    "t_critical",
    "KIND_STATIONARY",
    "KIND_TRACKING",
    "ControllerSpec",
    "CCSpec",
    "RunSpec",
    "SweepSpec",
    "cc_kinds",
    "controller_kinds",
]
