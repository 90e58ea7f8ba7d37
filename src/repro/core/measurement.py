"""The measurement process: closing the feedback loop (Section 5, Figure 5).

Every measurement interval ``Δt`` the process:

1. collects the interval counters from the run metrics (commits, aborts,
   conflicts, response times) and the time-averaged load from the admission
   gate;
2. builds an :class:`~repro.core.types.IntervalMeasurement`;
3. hands it to the configured :class:`~repro.core.controller.LoadController`
   and receives the new threshold ``n*``;
4. installs the threshold at the admission gate and, if a displacement
   policy is configured, asks the transaction system to abort enough victims
   to honour the lowered threshold immediately;
5. appends the step to a :class:`~repro.core.types.ControlTrace` (this is
   what the trajectory figures 13/14 are generated from);
6. optionally lets an outer-loop tuner adjust the next interval length.

The run's state lives here, not on the policies it applies: the count of
displaced transactions and the per-interval throughputs the tuner's
variability estimate reads.

Choosing ``Δt`` is the stability/responsiveness trade-off discussed in
Section 5: the interval must contain enough departures to filter stochastic
noise ("rather hundreds of departures than some tens") but be short enough
to react to genuine workload changes.  The
:class:`~repro.core.outer_loop.MeasurementIntervalTuner` automates the
choice.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.admission import AdmissionGate
from repro.core.controller import LoadController
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.types import ControlTrace, IntervalMeasurement
from repro.sim.engine import Process, Simulator
from repro.sim.stats import ObservationStats
from repro.tp.metrics import RunMetrics


class MeasurementProcess:
    """Periodic sampling and control-loop execution."""

    def __init__(self,
                 sim: Simulator,
                 gate: AdmissionGate,
                 metrics: RunMetrics,
                 controller: LoadController,
                 interval: float,
                 displace: Optional[Callable[[float], int]] = None,
                 interval_tuner: Optional[MeasurementIntervalTuner] = None,
                 mean_accesses_provider: Optional[Callable[[float], float]] = None,
                 warmup: float = 0.0):
        """Wire the loop together.

        ``displace`` is an optional callable provided by the transaction
        system; it receives the new limit and returns the number of
        transactions it displaced.  ``mean_accesses_provider`` maps the
        current time to the mean transaction size ``k`` (used by the Tay
        rule controller).  ``warmup`` delays the first sample so the
        controller never reacts to the initial transient.
        """
        if interval <= 0:
            raise ValueError(f"measurement interval must be positive, got {interval}")
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        self.sim = sim
        self.gate = gate
        self.metrics = metrics
        self.controller = controller
        self.interval = float(interval)
        self.displace = displace
        self.interval_tuner = interval_tuner
        self.mean_accesses_provider = mean_accesses_provider
        self.warmup = float(warmup)
        self.trace = ControlTrace()
        self.samples_taken = 0
        #: transactions the displace callable aborted over the run
        self.total_displaced = 0
        #: per-interval throughputs, the outer loop's variability estimate
        self.throughputs = ObservationStats()

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Install the initial threshold and start the periodic sampling process."""
        self.gate.set_limit(self.controller.current_limit)
        return self.sim.process(self._run(), name="measurement-process")

    def _run(self):
        if self.warmup > 0:
            yield self.sim.timeout(self.warmup)
            # throw away whatever accumulated during warm-up
            self.metrics.snapshot_interval()
            self.gate.load_stats.reset(self.sim.now)
        while True:
            interval_start = self.sim.now
            yield self.sim.timeout(self.interval)
            self.sample(interval_start)

    # ------------------------------------------------------------------
    def sample(self, interval_start: Optional[float] = None) -> IntervalMeasurement:
        """Take one sample now, run the controller, enforce the new limit."""
        now = self.sim.now
        if interval_start is None:
            interval_start = self.metrics.interval_start
        length = max(now - interval_start, 1e-12)
        counters = self.metrics.snapshot_interval()
        mean_load = self.gate.load_stats.mean(now)
        self.gate.load_stats.reset(now)
        mean_accesses = None
        if self.mean_accesses_provider is not None:
            mean_accesses = self.mean_accesses_provider(now)

        measurement = IntervalMeasurement(
            time=now,
            interval_length=length,
            throughput=counters.commits / length,
            mean_concurrency=mean_load,
            concurrency_at_sample=self.gate.current_load,
            current_limit=self.gate.limit,
            commits=counters.commits,
            aborts=counters.aborts,
            conflicts=counters.conflicts,
            mean_response_time=counters.mean_response_time(),
            mean_accesses_per_txn=mean_accesses,
        )

        new_limit = self.controller.update(measurement)
        self.gate.set_limit(new_limit)
        if self.displace is not None and new_limit < self.gate.current_load:
            self.total_displaced += self.displace(new_limit)
        self.trace.append(measurement, new_limit)
        self.samples_taken += 1

        if self.interval_tuner is not None:
            self.throughputs.add(measurement.throughput)
            self.interval = self.interval_tuner.next_interval(
                self.interval, measurement, self.throughputs)
        return measurement
