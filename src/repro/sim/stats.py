"""Statistics utilities for simulation output analysis.

The measurement layer of the load controller (Section 5 of the paper) needs
to estimate throughput and concurrency over finite intervals and to reason
about how long an interval must be to reach a given accuracy at a given
confidence level.  The classes here provide the required building blocks:

* :class:`ObservationStats` -- streaming mean/variance (Welford) over
  discrete observations such as response times.
* :class:`TimeWeightedStats` -- time-weighted averages of piecewise-constant
  quantities such as the concurrency level ``n(t)``.
* :class:`P2Quantile` -- deterministic streaming quantile estimation (the
  P-squared algorithm of Jain & Chlamtac), used for the p95/p99 SLO
  metrics of open-system runs.
* :func:`required_observations` -- how many observations are needed for a
  target relative accuracy, the quantity Heiss (1988) uses to size the
  measurement interval ("rather hundreds of departures than some tens").
"""

from __future__ import annotations

import math
from typing import List, Optional


def _normal_quantile(probability: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if probability < p_low:
        q = math.sqrt(-2 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if probability <= 1 - p_low:
        q = probability - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    q = math.sqrt(-2 * math.log(1 - probability))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)


class ObservationStats:
    """Streaming mean and variance of discrete observations (Welford).

    ``add`` sits on the simulation hot path (every commit and admission
    records an observation), so the class is slotted and the accumulation
    reads each attribute once.
    """

    __slots__ = ("count", "_mean", "_m2", "_minimum", "_maximum", "_total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        count = self.count + 1
        self.count = count
        mean = self._mean
        delta = value - mean
        mean += delta / count
        self._mean = mean
        self._m2 += delta * (value - mean)
        self._total += value
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def merge(self, other: "ObservationStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._minimum = other._minimum
            self._maximum = other._maximum
            self._total = other._total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean = (self.count * self._mean + other.count * other._mean) / combined
        self.count = combined
        self._total += other._total
        self._minimum = min(self._minimum, other._minimum)
        self._maximum = max(self._maximum, other._maximum)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return self._minimum if self.count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation (0.0 when empty)."""
        return self._maximum if self.count else 0.0

    def reset(self) -> None:
        """Forget all observations."""
        self.__init__()


class TimeWeightedStats:
    """Time-weighted average of a piecewise-constant quantity.

    Typical use: track the concurrency level ``n(t)``; every time it changes
    call :meth:`update` with the new value, then read :attr:`mean` at the end
    of a measurement interval.

    ``update`` runs on every admission, departure and queue change, so the
    class is slotted and the update path avoids repeated attribute reads.
    """

    __slots__ = ("_last_time", "_value", "_area", "_start_time",
                 "_minimum", "_maximum")

    def __init__(self, time: float, value: float = 0.0) -> None:
        self._last_time = float(time)
        self._value = float(value)
        self._area = 0.0
        self._start_time = float(time)
        self._minimum = float(value)
        self._maximum = float(value)

    @property
    def current(self) -> float:
        """Value currently in effect."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Record that the quantity changed to ``value`` at ``time``."""
        time = float(time)
        last_time = self._last_time
        if time < last_time - 1e-12:
            raise ValueError(
                f"time must be non-decreasing: got {time} after {last_time}"
            )
        value = float(value)
        self._area += (time - last_time) * self._value
        self._last_time = time
        self._value = value
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean from the start (or last reset) until ``until``."""
        end = self._last_time if until is None else float(until)
        if end < self._last_time:
            raise ValueError("cannot compute a mean ending before the last update")
        area = self._area + (end - self._last_time) * self._value
        horizon = end - self._start_time
        if horizon <= 0:
            return self._value
        return area / horizon

    @property
    def minimum(self) -> float:
        """Smallest value seen since the last reset."""
        return self._minimum

    @property
    def maximum(self) -> float:
        """Largest value seen since the last reset."""
        return self._maximum

    def reset(self, time: float) -> None:
        """Restart the averaging window at ``time``, keeping the current value."""
        time = float(time)
        self._area = 0.0
        self._start_time = time
        self._last_time = time
        self._minimum = self._value
        self._maximum = self._value


class P2Quantile:
    """Streaming quantile estimate via the P-squared algorithm.

    Jain & Chlamtac (1985): five markers track the minimum, the maximum,
    the target quantile and the two intermediate quantiles; every new
    observation shifts the markers by at most one position, adjusting the
    interior heights with a piecewise-parabolic prediction.  The estimate
    is a pure function of the observation sequence — no random numbers, no
    stored samples beyond the five markers — so the same trajectory yields
    bit-identical quantiles on every executor, which is what lets the
    ``p95_response_time``/``p99_response_time`` cell metrics be pinned by
    the golden harness across serial and dist runs.

    Until five observations have arrived the estimate is the exact sample
    quantile (linear interpolation of the sorted observations, which the
    marker array still holds verbatim at that point).
    """

    __slots__ = ("probability", "_increments", "_heights", "_positions",
                 "_desired", "count")

    def __init__(self, probability: float) -> None:
        if not 0.0 < probability < 1.0:
            raise ValueError(
                f"probability must be in (0, 1), got {probability}"
            )
        self.probability = float(probability)
        p = self.probability
        #: per-observation growth of the desired marker positions
        self._increments = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self.count = 0

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        # locate the marker cell containing the observation, widening the
        # extreme markers when the observation falls outside them
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self._desired
        increments = self._increments
        for index in range(5):
            desired[index] += increments[index]
        for index in (1, 2, 3):
            deviation = desired[index] - positions[index]
            if (deviation >= 1.0 and positions[index + 1] - positions[index] > 1.0) or \
               (deviation <= -1.0 and positions[index - 1] - positions[index] < -1.0):
                step = 1.0 if deviation >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        q = self._heights
        n = self._positions
        return q[index] + step / (n[index + 1] - n[index - 1]) * (
            (n[index] - n[index - 1] + step)
            * (q[index + 1] - q[index]) / (n[index + 1] - n[index])
            + (n[index + 1] - n[index] - step)
            * (q[index] - q[index - 1]) / (n[index] - n[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        q = self._heights
        n = self._positions
        neighbour = index + int(step)
        return q[index] + step * (q[neighbour] - q[index]) / (n[neighbour] - n[index])

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        count = self.count
        if count == 0:
            return 0.0
        heights = self._heights
        if count <= 5:
            rank = self.probability * (count - 1)
            low = int(math.floor(rank))
            high = min(low + 1, count - 1)
            fraction = rank - low
            return heights[low] * (1.0 - fraction) + heights[high] * fraction
        return heights[2]

    def reset(self) -> None:
        """Forget all observations (the quantile target is kept)."""
        self.__init__(self.probability)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P2Quantile(p={self.probability}, n={self.count}, value={self.value:.4g})"


def required_observations(coefficient_of_variation: float,
                          relative_accuracy: float,
                          confidence: float = 0.95) -> int:
    """Observations needed to estimate a mean to a given relative accuracy.

    For i.i.d. observations with coefficient of variation ``c``, the number
    of samples needed so that the confidence-interval half-width is at most
    ``relative_accuracy`` times the mean is ``(z * c / eps)^2`` where ``z``
    is the normal quantile of the confidence level.  Heiss (1988) uses this
    relation to size the measurement interval of the load controller; the
    paper's rule of thumb ("rather hundreds of departures than some tens")
    corresponds to c around 1 and a 10% accuracy target.
    """
    if coefficient_of_variation < 0:
        raise ValueError("coefficient of variation must be non-negative")
    if relative_accuracy <= 0:
        raise ValueError("relative accuracy must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = _normal_quantile(0.5 + confidence / 2.0)
    needed = (z * coefficient_of_variation / relative_accuracy) ** 2
    return max(1, int(math.ceil(needed)))
