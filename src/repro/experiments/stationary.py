"""Stationary experiments: the load/throughput curves of Figures 1 and 12.

Two questions are answered per offered load ``N`` (number of terminals):

* *without control* -- what throughput does the system reach when every
  arriving transaction is admitted immediately?  (Figure 1 / the "without
  control" curve of Figure 12: throughput rises, saturates, then drops.)
* *with control* -- what throughput does the same system reach when a load
  controller (IS or PA) adjusts the admission threshold?  (The "with
  control" curve of Figure 12: throughput stays at the optimum level for
  every offered load.)

:func:`run_stationary_point` runs one (offered load, controller) cell and
returns its :class:`StationaryPoint`; a :class:`StationarySweep` holds one
curve.  The grid of cells behind a whole curve is built and run by
:mod:`repro.runner` (``run_sweep("fig12_stationary")``, folded into curves
by :func:`repro.runner.stationary_sweeps`), where ``workers=N`` fans the
points out over processes and ``replicates=R`` turns each point into a
mean with a confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cc.registry import CCSpec, resolve_cc
from repro.core.admission import AdmissionGate
from repro.core.controller import LoadController
from repro.obs.catalog import ObserverSet
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.trace import TraceEvent
from repro.tp.arrivals import ArrivalProcess
from repro.tp.params import SystemParams
from repro.tp.system import TransactionSystem
from repro.tp.workload import MixedClassWorkload, TransactionClassSpec


@dataclass(frozen=True)
class StationaryPoint:
    """Result of one stationary run at a fixed offered load."""

    #: offered load: number of terminals
    offered_load: int
    #: committed transactions per second over the measured horizon
    throughput: float
    #: mean submission-to-commit latency
    mean_response_time: float
    #: time-averaged number of admitted transactions since the gate's last
    #: statistics reset: the measured window for an uncontrolled cell, but
    #: only the time since the controller's last sample for a controlled
    #: one, because every measurement sample resets the gate's load
    #: statistics (``AdmissionGate.load_stats``, the run's one integral of
    #: the load)
    mean_concurrency: float
    #: abandoned executions per commit
    restart_ratio: float
    #: CPU utilisation over the measured horizon
    cpu_utilisation: float
    #: threshold in effect at the end of the run (inf without control)
    final_limit: float
    #: commits observed (statistical weight of the point)
    commits: int
    #: abandoned executions by reason (:class:`~repro.cc.base.AbortReason`
    #: values as strings); lets restart-heavy schemes (wound-wait) be told
    #: apart from deadlock-victim schemes at the sweep level
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    #: the readouts of the run's observers (see :mod:`repro.obs.catalog`),
    #: keyed exactly as they appear in the cell metrics; empty unobserved
    observed: Dict[str, float] = field(default_factory=dict)
    #: the ``trace`` observer's lifecycle log; empty when not tracing
    trace_events: Sequence[TraceEvent] = ()
    #: streaming 95th/99th-percentile submission-to-commit latency over the
    #: measured window (P-squared estimates; 0 when nothing committed)
    p95_response_time: float = 0.0
    p99_response_time: float = 0.0
    #: arrivals rejected outright by tenant queue quotas (open runs only)
    shed: int = 0
    #: per-tenant SLO metrics, keyed ``tenant_<metric>_<class name>``;
    #: populated only for open/partly-open runs on a mixed-class workload
    #: (the tenant key set is enumerated from the *spec*, so the schema is
    #: a pure function of the cell spec, never of the trajectory)
    tenant_metrics: Dict[str, float] = field(default_factory=dict)

    def as_tuple(self) -> Tuple[float, float]:
        """The (load, throughput) pair used by the curve helpers."""
        return (float(self.offered_load), self.throughput)


@dataclass
class StationarySweep:
    """A whole load/throughput curve plus the analytic reference."""

    label: str
    points: List[StationaryPoint] = field(default_factory=list)
    #: analytic (model) throughput at each offered load, for comparison
    model_reference: Dict[int, float] = field(default_factory=dict)
    #: which analytic model produced :attr:`model_reference` ("TayModel"
    #: for locking-family schemes, "OccModel" for optimistic ones)
    model_reference_name: str = ""
    #: offered load -> replicate aggregate (mean ± CI per metric); populated
    #: by replicated runs, empty for single-replicate sweeps
    aggregates: Dict[int, object] = field(default_factory=dict)

    def curve(self) -> List[Tuple[float, float]]:
        """The (load, throughput) series in offered-load order."""
        return [point.as_tuple() for point in sorted(self.points, key=lambda p: p.offered_load)]

    def peak(self) -> StationaryPoint:
        """The point with the highest throughput."""
        if not self.points:
            raise ValueError("the sweep contains no points")
        return max(self.points, key=lambda point: point.throughput)

    def throughput_at(self, offered_load: int) -> float:
        """Throughput measured at a specific offered load."""
        for point in self.points:
            if point.offered_load == offered_load:
                return point.throughput
        raise KeyError(f"no point at offered load {offered_load}")


def run_stationary_point(params: SystemParams,
                         controller: Optional[LoadController] = None,
                         horizon: float = 30.0,
                         warmup: float = 5.0,
                         measurement_interval: float = 2.0,
                         streams: Optional[RandomStreams] = None,
                         workload_classes: Optional[Sequence[TransactionClassSpec]] = None,
                         cc: Optional[CCSpec] = None,
                         observers: Sequence[str] = (),
                         arrivals: Optional[ArrivalProcess] = None
                         ) -> StationaryPoint:
    """Run one stationary simulation and summarise it.

    With ``controller=None`` the system runs uncontrolled (every
    transaction admitted immediately); otherwise the controller, a fresh
    instance since controllers keep state, is attached with the given
    measurement interval.  ``streams`` overrides the run's random streams
    (the runner passes a replicate-derived family here; by default the
    streams are seeded from ``params.seed``).
    ``workload_classes`` switches the run onto a
    :class:`~repro.tp.workload.MixedClassWorkload` with the given class mix
    instead of the single-class workload of ``params.workload``.
    ``cc`` selects the concurrency control scheme — ``None`` (the default
    timestamp certification) or a :class:`~repro.cc.registry.CCSpec`; the
    scheme is built fresh for this run, bound to the run's simulator.
    ``observers`` names observers of :mod:`repro.obs.catalog` (gauges sample
    every ``measurement_interval``); their readouts fill
    :attr:`StationaryPoint.observed`, the ``trace`` log
    :attr:`StationaryPoint.trace_events`, and no other field changes.
    ``arrivals`` selects the arrival model (see :mod:`repro.tp.arrivals`):
    ``None`` keeps the paper's terminal processes; an open or
    partly-open process replaces them with an arrival source.  When the
    ``workload_classes`` carry tenant quotas and the run is open, the gate
    enforces them and the returned point's SLO fields
    (:attr:`StationaryPoint.p95_response_time`, ``p99_…``, ``shed`` and the
    per-tenant :attr:`StationaryPoint.tenant_metrics`) describe the outcome.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    streams = streams or RandomStreams(params.seed)
    workload = None
    if workload_classes is not None:
        workload = MixedClassWorkload(params.workload, streams, workload_classes)
    sim = Simulator()
    gate = None
    if arrivals is not None and workload_classes is not None:
        quotas = {cls.name: cls.admission_quota for cls in workload_classes
                  if cls.admission_quota is not None}
        queue_quotas = {cls.name: cls.queue_quota for cls in workload_classes
                        if cls.queue_quota is not None}
        if quotas or queue_quotas:
            gate = AdmissionGate(sim, tenant_quotas=quotas or None,
                                 tenant_queue_quotas=queue_quotas or None)
    observer_set = ObserverSet(observers, interval=measurement_interval)
    system = TransactionSystem(params, sim=sim, streams=streams, workload=workload,
                               cc=resolve_cc(cc, sim), gate=gate, observers=observer_set,
                               arrivals=arrivals)
    if controller is not None:
        system.attach_controller(controller, interval=measurement_interval, warmup=min(warmup, 1.0))
    try:
        system.start()
        system.run(until=warmup)
        # discard the warm-up transient; the resets bind the measured windows
        # of the rate metrics (metrics.measured_from, the resource integrals)
        # to now
        system.metrics.reset()
        system.cpus.reset_statistics()
        system.gate.reset_statistics()
        observer_set.reset(system.sim.now)
        system.run(until=warmup + horizon)
    finally:
        # the run frees itself by reference counting (see TransactionSystem.close)
        system.close()

    metrics = system.metrics
    tenant_metrics: Dict[str, float] = {}
    if arrivals is not None and workload_classes is not None:
        tenant_metrics = metrics.tenant_slo(cls.name for cls in workload_classes)
    return StationaryPoint(
        offered_load=params.n_terminals,
        throughput=metrics.throughput(),
        mean_response_time=metrics.mean_response_time(),
        mean_concurrency=system.gate.mean_load(),
        restart_ratio=metrics.restart_ratio,
        cpu_utilisation=system.cpus.utilisation(),
        final_limit=system.gate.limit,
        commits=metrics.commits,
        aborts_by_reason={reason.value: count for reason, count
                          in metrics.aborts_by_reason.items()},
        observed=observer_set.readout(system.sim.now),
        trace_events=observer_set.trace,
        p95_response_time=metrics.p95_response_time,
        p99_response_time=metrics.p99_response_time,
        shed=metrics.shed,
        tenant_metrics=tenant_metrics,
    )
