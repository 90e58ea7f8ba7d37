"""The runner's top-level entry point: run a sweep, get ordered results.

:func:`run_sweep` ties the layers together: it resolves a scenario name (or
accepts a ready :class:`~repro.runner.specs.SweepSpec`), expands replicates,
selects a serial or parallel executor from ``workers``, runs every cell,
and aggregates replicates into mean ± confidence-interval summaries.

Converters turn a :class:`SweepResult` back into the result objects the
figure-level code has always consumed
(:class:`~repro.experiments.stationary.StationarySweep` curves and
:class:`~repro.experiments.dynamic.TrackingResult` trajectories), so
benchmarks keep their assertions while execution is delegated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.experiments.config import ExperimentScale
from repro.obs.catalog import metric_schema
from repro.runner.cells import CellResult, execute_run_spec
from repro.runner.executor import make_executor
from repro.runner.registry import build_sweep
from repro.runner.replication import CellAggregate, aggregate_cells
from repro.runner.specs import KIND_STATIONARY, KIND_TRACKING, RunSpec, SweepSpec
from repro.tp.params import SystemParams


@dataclass
class SweepResult:
    """Everything one sweep produced, in deterministic cell order."""

    spec: SweepSpec
    #: one entry per executed run (cells × replicates), in spec order
    results: List[CellResult] = field(default_factory=list)
    #: one entry per cell, replicates folded into mean ± CI summaries
    aggregates: List[CellAggregate] = field(default_factory=list)

    @property
    def replicates(self) -> int:
        """Replicates per cell (1 when the sweep was not expanded)."""
        cell_count = len(self.spec.cell_ids())
        return len(self.results) // cell_count if cell_count else 0

    def aggregate(self, cell_id: str) -> CellAggregate:
        """The aggregate of one cell (KeyError if the id is unknown)."""
        for aggregate in self.aggregates:
            if aggregate.cell_id == cell_id:
                return aggregate
        raise KeyError(f"no cell {cell_id!r} in sweep {self.spec.name!r}")

    def labels(self) -> List[str]:
        """Distinct cell labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for cell in self.spec.cells:
            seen.setdefault(cell.label, None)
        return list(seen)


def run_sweep(sweep: Union[str, SweepSpec], *,
              workers: Optional[int] = 0,
              replicates: int = 1,
              scale: Optional[ExperimentScale] = None,
              base_params: Optional[SystemParams] = None,
              executor=None,
              address: Optional[str] = None,
              confidence: float = 0.95,
              **scenario_overrides) -> SweepResult:
    """Run a sweep (by name or spec) and aggregate its replicates.

    ``workers`` selects the executor: 0/1 run serially in-process, ``N>1``
    fan out over ``N`` processes, ``None`` uses every CPU.
    ``address="host:port"`` serves the cells to networked
    ``repro-dist-worker`` processes instead (the executor is owned, and
    closed, by this call; pass a ready ``executor`` — e.g. a
    :class:`~repro.dist.cluster.LocalCluster` — to manage its lifetime
    yourself).  Results are bit-identical between all settings.
    ``scale``, ``base_params`` and extra keyword arguments are forwarded
    to the scenario builder and are only valid when ``sweep`` is a
    scenario name.
    """
    if isinstance(sweep, str):
        spec = build_sweep(sweep, scale=scale, base_params=base_params,
                           **scenario_overrides)
    else:
        if scale is not None or base_params is not None or scenario_overrides:
            raise TypeError(
                "scale/base_params/overrides apply to named scenarios only; "
                "build the SweepSpec with them instead"
            )
        spec = sweep
    expanded = spec.with_replicates(replicates)
    owned_executor = None
    if executor is None:
        executor = owned_executor = make_executor(workers, address=address)
    elif address is not None:
        raise TypeError("pass either executor= or address=, not both")
    try:
        results = executor.execute(execute_run_spec, expanded.cells)
    finally:
        if owned_executor is not None and hasattr(owned_executor, "close"):
            owned_executor.close()
    aggregates = aggregate_cells(results, confidence=confidence)
    return SweepResult(spec=expanded, results=results, aggregates=aggregates)


# ----------------------------------------------------------------------
# converters back to the figure-level result objects
# ----------------------------------------------------------------------
def stationary_sweeps(result: SweepResult,
                      include_model_reference: bool = True) -> Dict[str, object]:
    """Fold a stationary sweep's cells into one curve per controller label.

    Returns ``{label: StationarySweep}`` in first-appearance order.  With a
    single replicate the points are exactly the worker-produced
    :class:`~repro.experiments.stationary.StationaryPoint` objects; with
    several, each point carries the replicate means and the sweep's
    ``aggregates`` map offered load to the full per-metric summaries.

    The analytic reference is *scheme-aware*: locking-family cells
    (``two_phase_locking`` / ``wound_wait`` / ``wait_die``) are referenced
    against Tay's blocking model, optimistic ones against the OCC fixed
    point (see :mod:`repro.analytic.references`); the sweep's
    ``model_reference_name`` records which model filled its
    ``model_reference`` column.
    """
    from repro.analytic.references import reference_model_for
    from repro.experiments.stationary import StationaryPoint, StationarySweep

    specs_by_id: Dict[str, RunSpec] = {}
    for cell in result.spec.cells:
        specs_by_id.setdefault(cell.cell_id, cell)

    sweeps: Dict[str, StationarySweep] = {}
    for aggregate in result.aggregates:
        if aggregate.kind != KIND_STATIONARY:
            continue
        spec = specs_by_id[aggregate.cell_id]
        sweep = sweeps.get(spec.label)
        if sweep is None:
            sweep = StationarySweep(label=spec.label)
            sweeps[spec.label] = sweep
        if aggregate.count == 1:
            point = aggregate.replicates[0].payload
        else:
            point = _mean_stationary_point(StationaryPoint, spec, aggregate)
            sweep.aggregates[spec.params.n_terminals] = aggregate
        sweep.points.append(point)
        if include_model_reference:
            name, model = reference_model_for(spec.params, spec.cc)
            sweep.model_reference_name = name
            # the uncontrolled system operates near the offered load, the
            # controlled one near the model's optimum
            if spec.controller is None:
                reference_mpl = float(spec.params.n_terminals)
            else:
                reference_mpl = model.optimal_mpl()
            sweep.model_reference[spec.params.n_terminals] = model.throughput(reference_mpl)
    return sweeps


def _mean_stationary_point(point_type, spec: RunSpec, aggregate: CellAggregate):
    """A synthetic point carrying the replicate means of every metric."""
    mean = {name: summary.mean for name, summary in aggregate.metrics.items()}
    return point_type(
        offered_load=spec.params.n_terminals,
        throughput=mean["throughput"],
        mean_response_time=mean["mean_response_time"],
        mean_concurrency=mean["mean_concurrency"],
        restart_ratio=mean["restart_ratio"],
        cpu_utilisation=mean["cpu_utilisation"],
        final_limit=mean["final_limit"],
        commits=int(round(mean["commits"])),
        # aborts_by_reason cells report aborts_<reason> metrics; fold their
        # replicate means back so replicated sweeps keep per-reason data
        aborts_by_reason={name[len("aborts_"):]: int(round(value))
                          for name, value in mean.items()
                          if name.startswith("aborts_")},
        observed={name: mean[name] for name in metric_schema(spec.observers)},
    )


def tracking_results(result: SweepResult) -> Dict[str, object]:
    """The first replicate's trajectory per tracking cell, keyed by label.

    Trajectories of different replicates cannot be averaged sample-by-sample
    (their sampling instants differ once the run diverges), so the full
    :class:`~repro.experiments.dynamic.TrackingResult` of replicate 0
    represents each cell; the scalar mean ± CI summaries remain available
    through :attr:`SweepResult.aggregates`.  A cell is keyed by its label
    only while that is unambiguous (unique, and not the id of another
    cell); otherwise by its unique cell id — no cell is ever silently
    dropped.
    """
    tracked = [aggregate for aggregate in result.aggregates
               if aggregate.kind == KIND_TRACKING]
    label_counts: Dict[str, int] = {}
    for aggregate in tracked:
        if aggregate.label:
            label_counts[aggregate.label] = label_counts.get(aggregate.label, 0) + 1
    cell_ids = {aggregate.cell_id for aggregate in tracked}
    trajectories: Dict[str, object] = {}
    for aggregate in tracked:
        label = aggregate.label
        unambiguous = (label and label_counts[label] == 1
                       and (label == aggregate.cell_id or label not in cell_ids))
        key = label if unambiguous else aggregate.cell_id
        first = min(aggregate.replicates, key=lambda replicate: replicate.replicate)
        trajectories[key] = first.payload
    return trajectories
