"""The outer control loop: automatic tuning of the measurement interval.

Section 5: "Tuning does not necessarily mean manual adjustment, it can also
be done automatically by an overlaid, outer control loop that takes
long-term measurements to adjust the parameters of the inner control loop"
and "an estimate should comprise rather hundreds of departures than some
tens".

The tuner implemented here adjusts the measurement interval so each interval
contains approximately ``target_departures`` commits:

* the number of departures needed for a given relative accuracy and
  confidence follows from the coefficient of variation of the departure
  process (:func:`repro.sim.stats.required_observations`), estimated online
  from the per-interval throughput series that the measurement process
  keeps and passes in (the tuner itself is plain configuration);
* the interval is then ``needed_departures / throughput``, smoothed
  exponentially and clamped to a configurable band so a momentary throughput
  collapse (exactly the situation the controller must react to quickly!)
  cannot stretch the interval without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.types import IntervalMeasurement
from repro.sim.stats import ObservationStats, required_observations


@dataclass(frozen=True)
class MeasurementIntervalTuner:
    """Keeps each measurement interval at ~``target_departures`` commits.

    If ``target_departures`` is given it is used directly; otherwise the
    target is derived from ``relative_accuracy`` and ``confidence`` using
    the running estimate of the departure-process coefficient of variation.
    ``smoothing`` in (0, 1] is the exponential-update weight of the new
    interval proposal (1 = jump immediately).
    """

    target_departures: Optional[int] = None
    relative_accuracy: float = 0.1
    confidence: float = 0.95
    min_interval: float = 0.5
    max_interval: float = 60.0
    smoothing: float = 0.5

    def __post_init__(self) -> None:
        if self.target_departures is not None and self.target_departures < 1:
            raise ValueError(
                f"target_departures must be >= 1, got {self.target_departures}")
        if self.min_interval <= 0 or self.max_interval < self.min_interval:
            raise ValueError(
                "need 0 < min_interval <= max_interval, got "
                f"{self.min_interval}, {self.max_interval}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {self.smoothing}")
        for name in ("relative_accuracy", "confidence", "min_interval",
                     "max_interval", "smoothing"):
            object.__setattr__(self, name, float(getattr(self, name)))

    # ------------------------------------------------------------------
    def _needed_departures(self, throughputs: ObservationStats) -> int:
        if self.target_departures is not None:
            return self.target_departures
        mean = throughputs.mean
        if throughputs.count < 3 or mean <= 0:
            # not enough information yet: use the paper's "hundreds rather
            # than tens" guidance as the default
            return 100
        coefficient_of_variation = throughputs.stddev / mean
        return required_observations(
            max(coefficient_of_variation, 0.1), self.relative_accuracy, self.confidence
        )

    def next_interval(self, current_interval: float,
                      measurement: IntervalMeasurement,
                      throughputs: ObservationStats) -> float:
        """Propose the length of the next measurement interval.

        ``throughputs`` holds the run's per-interval throughputs so far,
        ``measurement``'s included.
        """
        throughput = measurement.throughput
        if throughput <= 0:
            # no commits at all: lengthen cautiously, the system may be
            # recovering from an overload the controller just resolved
            proposal = min(self.max_interval, current_interval * 2.0)
        else:
            proposal = self._needed_departures(throughputs) / throughput
        proposal = min(self.max_interval, max(self.min_interval, proposal))
        new_interval = (1.0 - self.smoothing) * current_interval + self.smoothing * proposal
        return min(self.max_interval, max(self.min_interval, new_interval))
