"""Executing one experiment cell, in-process or inside a dist worker.

:func:`execute_run_spec` is the single entry point every executor maps over
the cells of a :class:`~repro.runner.specs.SweepSpec`.  It is a module-level
function (so the dist wire protocol pickles it by reference and a worker
imports it by module path), builds all stateful objects locally, and
returns a :class:`CellResult` whose payload and metrics are plain
picklable data.  The run itself is the experiment layer's
(:func:`~repro.experiments.stationary.run_stationary_point`,
:func:`~repro.experiments.dynamic.run_tracking_experiment`); this module
only maps a spec onto it and summarises the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.analytic.references import reference_model_name
from repro.experiments.dynamic import run_tracking_experiment
from repro.experiments.stationary import run_stationary_point
from repro.experiments.tracking import compute_tracking_metrics
from repro.obs import telemetry
from repro.obs.catalog import ABORTS_BY_REASON
from repro.runner.specs import KIND_STATIONARY, KIND_TRACKING, RunSpec
from repro.sim.random_streams import RandomStreams
from repro.sim.trace import TraceEvent

#: fraction of the tracking horizon discarded as the start-up transient when
#: computing the cell-level mean_abs_error / throughput_ratio summaries.
#: This is the runner's *standard* window for cross-scenario aggregate
#: comparisons; individual benchmarks may evaluate their own windows (e.g.
#: the sinusoid benchmark uses 0.2) for their specific assertions.
TRACKING_METRICS_TRANSIENT_FRACTION = 0.15


@dataclass
class CellResult:
    """Outcome of one cell run: summary metrics plus the full result object.

    ``metrics`` holds the scalar quantities the replication layer can
    aggregate (mean ± confidence interval); ``payload`` is the full
    :class:`~repro.experiments.stationary.StationaryPoint` or
    :class:`~repro.experiments.dynamic.TrackingResult` for callers that need
    the complete series.  ``trace`` holds the lifecycle log of the
    ``trace`` observer (empty when the cell did not select it).
    """

    cell_id: str
    kind: str
    replicate: int
    label: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    payload: object = None
    #: name of the scheme-aware analytic reference ("TayModel"/"OccModel");
    #: set only when the spec selected the ``aborts_by_reason`` observer, so
    #: the golden fixtures of cells that never requested it are untouched
    model_reference: str = ""
    trace: Sequence[TraceEvent] = ()


def replicate_streams(seed: int, replicate: int) -> RandomStreams:
    """The random streams of one replicate of a run.

    Replicate 0 uses the root streams directly, so a single-replicate runner
    cell is bitwise identical to the corresponding direct serial run; higher
    replicates branch off via :meth:`RandomStreams.spawn`.
    """
    streams = RandomStreams(seed)
    if replicate:
        streams = streams.spawn(replicate)
    return streams


def execute_run_spec(spec: RunSpec) -> CellResult:
    """Run one cell and summarise it (the executor-mapped worker function).

    When a telemetry sink is active (:mod:`repro.obs.telemetry`) the call is
    wrapped in a ``cell_execute`` span attributing the cell's wall-clock
    execute time to this worker process; the clock is only read when a sink
    is installed, so untelemetered runs pay a single ``None`` check.
    """
    sink = telemetry.active_sink()
    if sink is None:
        return _execute_cell(spec)
    started = time.monotonic()
    result = _execute_cell(spec)
    telemetry.emit(
        "cell_execute",
        cell_id=spec.cell_id,
        replicate=spec.replicate,
        kind=spec.kind,
        duration=time.monotonic() - started,
    )
    return result


def _execute_cell(spec: RunSpec) -> CellResult:
    if spec.kind == KIND_STATIONARY:
        return _execute_stationary(spec)
    if spec.kind == KIND_TRACKING:
        return _execute_tracking(spec)
    raise ValueError(f"unknown run kind {spec.kind!r}")


def _execute_stationary(spec: RunSpec) -> CellResult:
    point = run_stationary_point(
        spec.params,
        controller=spec.build_controller(),
        horizon=spec.scale.stationary_horizon,
        warmup=spec.scale.warmup,
        measurement_interval=spec.scale.measurement_interval,
        streams=replicate_streams(spec.params.seed, spec.replicate),
        workload_classes=spec.workload_classes,
        cc=spec.cc,
        observers=spec.observers,
        arrivals=spec.arrivals,
    )
    metrics = {
        "throughput": point.throughput,
        "mean_response_time": point.mean_response_time,
        "restart_ratio": point.restart_ratio,
        "mean_concurrency": point.mean_concurrency,
        "cpu_utilisation": point.cpu_utilisation,
        "commits": float(point.commits),
        "final_limit": point.final_limit,
    }
    if spec.arrivals is not None:
        # SLO metrics only for cells that opted into an arrival model, so
        # the metric schema (and every pre-existing golden) of closed cells
        # is untouched; the per-tenant keys are enumerated from the spec's
        # class names inside run_stationary_point
        metrics["p95_response_time"] = point.p95_response_time
        metrics["p99_response_time"] = point.p99_response_time
        metrics["shed"] = float(point.shed)
        metrics.update(point.tenant_metrics)
    # observer readouts have a schema fixed by the selection, so they fold
    # through the replicate aggregation like any other metric
    metrics.update(point.observed)
    model_reference = ""
    if ABORTS_BY_REASON in spec.observers:
        model_reference = reference_model_name(spec.cc)
    return CellResult(
        cell_id=spec.cell_id,
        kind=spec.kind,
        replicate=spec.replicate,
        label=spec.label,
        metrics=metrics,
        payload=point,
        model_reference=model_reference,
        trace=point.trace_events,
    )


def _execute_tracking(spec: RunSpec) -> CellResult:
    result = run_tracking_experiment(
        spec.build_controller(),
        spec.scenario,
        base_params=spec.params,
        scale=spec.scale,
        displacement=spec.displacement,
        interval_tuner=spec.interval_tuner,
        streams=replicate_streams(spec.params.seed, spec.replicate),
        cc=spec.cc,
        observers=spec.observers,
    )
    horizon = spec.scale.tracking_horizon
    metrics = {
        "throughput": result.total_commits / horizon if horizon > 0 else 0.0,
        "mean_response_time": result.mean_response_time,
        "restart_ratio": result.restart_ratio,
        "commits": float(result.total_commits),
    }
    if spec.displacement is not None:
        # only cells that carry a policy report this, so the metrics of all
        # displacement-free cells (and their goldens) are unchanged
        metrics["displaced"] = float(result.displaced)
    try:
        tracking = compute_tracking_metrics(
            result,
            evaluate_after=TRACKING_METRICS_TRANSIENT_FRACTION * spec.scale.tracking_horizon,
        )
        metrics["mean_abs_error"] = tracking.mean_absolute_error
        metrics["throughput_ratio"] = tracking.throughput_ratio
    except ValueError:
        # degenerate traces (no samples after the transient) still produce a
        # usable cell; only the tracking-error metrics are omitted
        pass
    return CellResult(
        cell_id=spec.cell_id,
        kind=spec.kind,
        replicate=spec.replicate,
        label=spec.label,
        metrics=metrics,
        payload=result,
        trace=result.trace_events,
    )
