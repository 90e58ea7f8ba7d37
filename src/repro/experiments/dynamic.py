"""Dynamic experiments: tracking a moving optimum (Figures 13, 14, sinusoid).

The paper's main interest is dynamic behaviour: the workload parameters
(``k``, the query fraction, the write fraction) change during the run,
moving both the height and the position of the throughput optimum, and the
controller's threshold trajectory ``n*(t)`` is compared against the true
optimum ``n_opt(t)``.

Two plants are supported:

* the full discrete-event transaction system
  (:func:`run_tracking_experiment`), where the reference optimum is computed
  from the analytic OCC model for the workload parameters in effect at each
  sampling instant;
* the synthetic overload function (:func:`run_synthetic_tracking`), the
  direct realization of the paper's "dynamic optimum search" abstraction,
  where the reference optimum is exact and runs take milliseconds.

Scenario helpers build the two variation patterns used in Section 9:
``jump_scenario`` (abrupt change at mid-run, Figures 13/14) and
``sinusoid_scenario`` (smooth periodic change).  A scenario is a
``(parameter, schedule)`` pair whose parameter is one of
:data:`~repro.tp.workload.VARIED_PARAMETERS`: the
:class:`~repro.tp.workload.Workload` keyword that takes the schedule.  The
run's own workload also answers for the reference optimum after the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytic.occ import OccModel
from repro.analytic.synthetic import DynamicOptimumScenario, SyntheticSystem
from repro.cc.registry import CCSpec, resolve_cc
from repro.core.controller import LoadController
from repro.core.displacement import DisplacementPolicy
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.types import ControlTrace
from repro.experiments.config import ExperimentScale, default_system_params
from repro.obs.catalog import ObserverSet, validate_observers
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.trace import TraceEvent
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    ParameterSchedule,
    SinusoidSchedule,
    Workload,
    check_varied_parameter,
)


@dataclass
class TrackingResult:
    """Outcome of one dynamic tracking run."""

    #: controller name (for reports)
    controller: str
    #: which workload parameter was varied ("accesses", "query_fraction", ...)
    varied_parameter: str
    #: the closed-loop trace: times, thresholds, loads, throughputs
    trace: ControlTrace
    #: reference optimum position at each sampling instant
    reference_optima: List[float] = field(default_factory=list)
    #: reference peak throughput at each sampling instant (if known)
    reference_peaks: List[float] = field(default_factory=list)
    #: total commits over the run (useful-work comparison between controllers)
    total_commits: int = 0
    #: run-level mean response time
    mean_response_time: float = 0.0
    #: abandoned executions per commit over the whole run
    restart_ratio: float = 0.0
    #: the ``trace`` observer's lifecycle log; empty when not tracing
    trace_events: Sequence[TraceEvent] = ()
    #: transactions aborted by displacement over the run
    displaced: int = 0

    def threshold_series(self) -> List[Tuple[float, float]]:
        """(time, threshold) points -- the solid line of Figures 13/14."""
        return list(zip(self.trace.times, self.trace.limits))

    def reference_series(self) -> List[Tuple[float, float]]:
        """(time, true optimum) points -- the broken line of Figures 13/14."""
        return list(zip(self.trace.times, self.reference_optima))


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------
def jump_scenario(parameter: str, before: float, after: float, jump_time: float
                  ) -> Tuple[str, ParameterSchedule]:
    """A jump-like variation of one workload parameter (Figures 13/14)."""
    return check_varied_parameter(parameter), JumpSchedule(before, after, jump_time)


def sinusoid_scenario(parameter: str, mean: float, amplitude: float, period: float
                      ) -> Tuple[str, ParameterSchedule]:
    """A sinusoidal variation of one workload parameter (Section 9)."""
    return check_varied_parameter(parameter), SinusoidSchedule(mean, amplitude, period)


def _reference_optimum(params: SystemParams, current: WorkloadParams) -> Tuple[float, float]:
    """True optimum (position, peak) from the analytic model for the workload ``current``."""
    model = OccModel(params.with_changes(workload=current), current)
    optimum = model.optimal_mpl()
    return optimum, model.throughput(optimum)


# ----------------------------------------------------------------------
# discrete-event tracking run
# ----------------------------------------------------------------------
def run_tracking_experiment(controller: LoadController,
                            scenario: Tuple[str, ParameterSchedule],
                            base_params: Optional[SystemParams] = None,
                            scale: Optional[ExperimentScale] = None,
                            displacement: Optional[DisplacementPolicy] = None,
                            interval_tuner: Optional[MeasurementIntervalTuner] = None,
                            streams: Optional[RandomStreams] = None,
                            cc: Optional[CCSpec] = None,
                            observers: Sequence[str] = ()) -> TrackingResult:
    """Run the full simulation with a time-varying workload and a controller.

    ``interval_tuner`` enables the outer control loop of Section 5;
    ``streams`` overrides the run's random streams (the runner passes a
    replicate-derived family here); ``cc`` selects the concurrency control
    scheme (``None`` = timestamp certification, or a
    :class:`~repro.cc.registry.CCSpec`) — the
    analytic reference optimum is always the OCC model's, so trajectories
    of different schemes are compared against one common yardstick.
    ``observers`` may select ``trace`` (the only tracking observer), whose
    log fills :attr:`TrackingResult.trace_events`.
    """
    scale = scale or ExperimentScale.benchmark()
    base_params = base_params or default_system_params()
    parameter, schedule = scenario

    streams = streams or RandomStreams(base_params.seed)
    workload = Workload(base_params.workload, streams, **{parameter: schedule})

    sim = Simulator()
    observer_set = ObserverSet(validate_observers(observers, stationary=False))
    system = TransactionSystem(
        base_params,
        sim=sim,
        streams=streams,
        workload=workload,
        cc=resolve_cc(cc, sim),
        displacement=displacement,
        observers=observer_set,
    )
    measurement = system.attach_controller(
        controller,
        interval=scale.measurement_interval,
        warmup=0.0,
        interval_tuner=interval_tuner,
    )
    try:
        system.run(until=scale.tracking_horizon)
    finally:
        # the run frees itself by reference counting (see TransactionSystem.close)
        system.close()

    # reference optimum of the workload state at each sample, one analytic
    # solve per distinct state; params_at is a pure function of time, so
    # the run's own workload answers for every sample after the run
    reference_optima: List[float] = []
    reference_peaks: List[float] = []
    cache: Dict[Tuple, Tuple[float, float]] = {}
    for sample_time in measurement.trace.times:
        current = workload.params_at(sample_time)
        key = (current.accesses_per_txn, round(current.query_fraction, 6),
               round(current.write_fraction, 6))
        if key not in cache:
            cache[key] = _reference_optimum(base_params, current)
        optimum, peak = cache[key]
        reference_optima.append(optimum)
        reference_peaks.append(peak)

    return TrackingResult(
        controller=controller.name,
        varied_parameter=parameter,
        trace=measurement.trace,
        reference_optima=reference_optima,
        reference_peaks=reference_peaks,
        total_commits=system.metrics.commits,
        mean_response_time=system.metrics.mean_response_time(),
        restart_ratio=system.metrics.restart_ratio,
        trace_events=observer_set.trace,
        displaced=measurement.total_displaced,
    )


# ----------------------------------------------------------------------
# synthetic tracking run (the Section 3 abstraction)
# ----------------------------------------------------------------------
def run_synthetic_tracking(controller: LoadController,
                           position_schedule: ParameterSchedule,
                           height_schedule: Optional[ParameterSchedule] = None,
                           steps: int = 400,
                           offered_load: float = math.inf,
                           noise_std: float = 0.0,
                           seed: int = 0,
                           interval: float = 1.0) -> TrackingResult:
    """Track a synthetic moving optimum (fast, exact reference)."""
    height = height_schedule or ConstantSchedule(100.0)
    scenario = DynamicOptimumScenario(position=position_schedule, height=height)
    plant = SyntheticSystem(
        scenario,
        controller,
        offered_load=offered_load,
        interval=interval,
        noise_std=noise_std,
        seed=seed,
    )
    plant.run(steps)
    peaks = [scenario.peak_at(t) for t in plant.trace.times]
    return TrackingResult(
        controller=controller.name,
        varied_parameter="synthetic-optimum",
        trace=plant.trace,
        reference_optima=list(plant.reference_optima),
        reference_peaks=peaks,
        total_commits=sum(int(round(p * interval)) for p in plant.trace.throughput),
        mean_response_time=0.0,
    )
