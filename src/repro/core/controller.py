"""Base class shared by all load controllers.

A load controller solves the "dynamic optimum search problem" of Section 3:
given the series of realized (load, performance) pairs from the past, choose
the next upper bound ``n*`` for the concurrency level so that the system
operates at the ridge of the load/performance mountain as it moves over
time.

Controllers are deliberately plant-agnostic: they see only
:class:`~repro.core.types.IntervalMeasurement` records and return the next
threshold.  Static lower and upper bounds (Section 5.1 recommends them to
keep the simple IS algorithm recoverable) are enforced here so individual
controllers cannot forget them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional

from repro.core.types import IntervalMeasurement

#: a performance index maps an interval measurement to the scalar the
#: controller maximises (Section 6: throughput is the default, but other
#: quantities with a similar unimodal shape are eligible)
PerformanceIndex = Callable[[IntervalMeasurement], float]


def throughput_index(measurement: IntervalMeasurement) -> float:
    """The default performance index: committed transactions per second."""
    return measurement.throughput


def effective_utilisation_index(measurement: IntervalMeasurement) -> float:
    """Useful-work share: commits per started execution, scaled by throughput.

    Section 6 discusses alternative performance measures; this one rewards
    both getting work done and not wasting executions on restarts.
    """
    return measurement.throughput * measurement.effective_utilisation_proxy


def inverse_response_time_index(measurement: IntervalMeasurement) -> float:
    """Responsiveness: the reciprocal of the mean response time.

    Falls back to the throughput when no transaction committed during the
    interval (the reciprocal would be undefined).
    """
    if measurement.mean_response_time <= 0.0:
        return measurement.throughput
    return 1.0 / measurement.mean_response_time


class LoadController(ABC):
    """Abstract adaptive (or static) multiprogramming-level controller."""

    #: short name used in reports and benchmark tables
    name: str = "abstract"

    def __init__(self, initial_limit: float, lower_bound: float = 1.0,
                 upper_bound: float = math.inf,
                 performance_index: Optional[PerformanceIndex] = None):
        if lower_bound < 1.0:
            raise ValueError(f"lower_bound must be >= 1, got {lower_bound}")
        if upper_bound < lower_bound:
            raise ValueError(
                f"upper_bound ({upper_bound}) must be >= lower_bound ({lower_bound})"
            )
        self.lower_bound = float(lower_bound)
        self.upper_bound = float(upper_bound)
        self.performance_index = performance_index or throughput_index
        #: the threshold in effect (the clamped initial limit until an update)
        self.current_limit = self.clamp(float(initial_limit))

    # ------------------------------------------------------------------
    def clamp(self, limit: float) -> float:
        """Force ``limit`` into the static [lower_bound, upper_bound] band."""
        if math.isnan(limit):
            return self.lower_bound
        return min(self.upper_bound, max(self.lower_bound, limit))

    def performance_of(self, measurement: IntervalMeasurement) -> float:
        """The scalar performance value this controller maximises."""
        return self.performance_index(measurement)

    # ------------------------------------------------------------------
    def update(self, measurement: IntervalMeasurement) -> float:
        """Consume one interval measurement and return the next threshold."""
        proposed = self._propose(measurement)
        self.current_limit = self.clamp(proposed)
        return self.current_limit

    @abstractmethod
    def _propose(self, measurement: IntervalMeasurement) -> float:
        """Controller-specific update rule (before clamping)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} limit={self.current_limit:.1f}>"
