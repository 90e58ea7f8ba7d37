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
  process (:func:`repro.sim.stats.required_observations`), which the tuner
  estimates online from the per-interval throughput series;
* the interval is then ``needed_departures / throughput``, smoothed
  exponentially and clamped to a configurable band so a momentary throughput
  collapse (exactly the situation the controller must react to quickly!)
  cannot stretch the interval without bound.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.types import IntervalMeasurement
from repro.sim.stats import ObservationStats, required_observations


class MeasurementIntervalTuner:
    """Keeps each measurement interval at ~``target_departures`` commits."""

    def __init__(self,
                 target_departures: Optional[int] = None,
                 relative_accuracy: float = 0.1,
                 confidence: float = 0.95,
                 min_interval: float = 0.5,
                 max_interval: float = 60.0,
                 smoothing: float = 0.5):
        """Create the tuner.

        If ``target_departures`` is given it is used directly; otherwise the
        target is derived from ``relative_accuracy`` and ``confidence`` using
        the running estimate of the departure-process coefficient of
        variation.  ``smoothing`` in (0, 1] is the exponential-update weight
        of the new interval proposal (1 = jump immediately).
        """
        if target_departures is not None and target_departures < 1:
            raise ValueError(f"target_departures must be >= 1, got {target_departures}")
        if min_interval <= 0 or max_interval < min_interval:
            raise ValueError(
                f"need 0 < min_interval <= max_interval, got {min_interval}, {max_interval}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.target_departures = target_departures
        self.relative_accuracy = float(relative_accuracy)
        self.confidence = float(confidence)
        self.min_interval = float(min_interval)
        self.max_interval = float(max_interval)
        self.smoothing = float(smoothing)
        self._throughput_stats = ObservationStats()
        self.adjustments = 0

    # ------------------------------------------------------------------
    def _needed_departures(self) -> int:
        if self.target_departures is not None:
            return self.target_departures
        mean = self._throughput_stats.mean
        if self._throughput_stats.count < 3 or mean <= 0:
            # not enough information yet: use the paper's "hundreds rather
            # than tens" guidance as the default
            return 100
        coefficient_of_variation = self._throughput_stats.stddev / mean
        return required_observations(
            max(coefficient_of_variation, 0.1), self.relative_accuracy, self.confidence
        )

    def next_interval(self, current_interval: float,
                      measurement: IntervalMeasurement) -> float:
        """Propose the length of the next measurement interval."""
        self._throughput_stats.add(measurement.throughput)
        throughput = measurement.throughput
        if throughput <= 0:
            # no commits at all: lengthen cautiously, the system may be
            # recovering from an overload the controller just resolved
            proposal = min(self.max_interval, current_interval * 2.0)
        else:
            proposal = self._needed_departures() / throughput
        proposal = min(self.max_interval, max(self.min_interval, proposal))
        new_interval = (1.0 - self.smoothing) * current_interval + self.smoothing * proposal
        new_interval = min(self.max_interval, max(self.min_interval, new_interval))
        if not math.isclose(new_interval, current_interval, rel_tol=1e-9):
            self.adjustments += 1
        return new_interval

    # ------------------------------------------------------------------
    # Tuners compare (and hash) by configuration, not by run state, for
    # the reason DisplacementPolicy does: a RunSpec carrying one must equal
    # its decoded or unpickled copy however many intervals it has tuned.
    def _config(self) -> tuple:
        return (self.target_departures, self.relative_accuracy, self.confidence,
                self.min_interval, self.max_interval, self.smoothing)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurementIntervalTuner):
            return NotImplemented
        return self._config() == other._config()

    def __hash__(self) -> int:
        return hash(self._config())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MeasurementIntervalTuner target={self.target_departures} "
            f"band=[{self.min_interval}, {self.max_interval}]>"
        )
