"""The Method of Incremental Steps (IS) — Section 4.1.

The controller performs hill climbing on the measured (load, performance)
series.  In each measurement interval the actual concurrency level ``n(t_i)``
and the performance ``P(t_i)`` are measured; the new load bound is

.. code-block:: text

    n*(t_{i+1}) =
        n*(t_i) + beta * (P(t_i) - P(t_{i-1})) * signum(n*(t_i) - n*(t_{i-1}))
                                        if |n*(t_i) - n(t_i)| <= delta
        n*(t_i) + gamma                 if |n*(t_i) - n(t_i)| >  delta and n*(t_i) < n(t_i)
        n*(t_i) - gamma                 if |n*(t_i) - n(t_i)| >  delta and n*(t_i) > n(t_i)

with ``signum(x) = 1`` for ``x > 0`` and ``-1`` for ``x <= 0``.

Interpretation: while the threshold and the actual load agree (the first
case), the controller keeps moving in the direction that last improved the
performance and reverses direction when performance degrades, so the
threshold zig-zags along the ridge of the performance mountain (Figure 3).
``beta`` scales the step size proportionally to the performance change;
``gamma`` and ``delta`` prevent the threshold and the actual load from
drifting apart (e.g. when the offered load drops and the actual ``n`` falls
well below ``n*``, the bound is pulled back towards the load, otherwise a
later load surge would start deep in the thrashing region).

Section 5.1 warns that the simple IS rule can be fooled when the *height* of
the optimum grows while its position stays put (every step then looks like
an improvement); static lower and upper bounds for ``n*`` keep the
controller recoverable, and they are part of the controller's configuration
here.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.controller import LoadController
from repro.core.types import IntervalMeasurement


def signum(x: float) -> int:
    """The paper's signum: 1 for x > 0, -1 for x <= 0 (note: -1 at zero)."""
    return 1 if x > 0 else -1


class IncrementalStepsController(LoadController):
    """Hill-climbing MPL controller (the paper's IS algorithm)."""

    name = "incremental-steps"

    def __init__(self,
                 initial_limit: float = 10.0,
                 beta: float = 1.0,
                 gamma: float = 5.0,
                 delta: float = 5.0,
                 lower_bound: float = 1.0,
                 upper_bound: float = 1000.0,
                 min_step: float = 1.0,
                 max_step: Optional[float] = None,
                 performance_index=None):
        """Create an IS controller.

        Parameters mirror the paper: ``beta`` converts performance change
        into step size, ``gamma`` is the fixed re-coupling step used when the
        threshold and the actual load drift apart by more than ``delta``.
        ``min_step`` keeps the controller exploring even when two successive
        performance measurements are (almost) equal; ``max_step`` (default:
        ``upper_bound/4``) bounds a single move so one noisy measurement
        cannot throw the threshold across the whole admissible range.
        """
        super().__init__(initial_limit=initial_limit, lower_bound=lower_bound,
                         upper_bound=upper_bound, performance_index=performance_index)
        if beta < 0 or gamma < 0 or delta < 0:
            raise ValueError("beta, gamma and delta must be non-negative")
        if min_step < 0:
            raise ValueError(f"min_step must be non-negative, got {min_step}")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.min_step = float(min_step)
        self.max_step = float(max_step) if max_step is not None else (upper_bound - lower_bound) / 4.0
        # memory of the previous interval: P(t_{i-1}) and n*(t_{i-1})
        self._previous_performance: Optional[float] = None
        self._previous_limit: Optional[float] = None

    # ------------------------------------------------------------------
    def _propose(self, measurement: IntervalMeasurement) -> float:
        performance = self.performance_of(measurement)
        limit = self.current_limit
        load = measurement.concurrency_at_sample

        if self._previous_performance is None:
            # First measurement: no gradient information yet.  Take one
            # exploratory step upward so the next interval produces a usable
            # (direction, performance change) pair.
            self._previous_performance = performance
            self._previous_limit = limit
            return limit + max(self.min_step, self.gamma)

        if abs(limit - load) <= self.delta:
            direction = signum(limit - (self._previous_limit
                                        if self._previous_limit is not None else limit))
            delta_p = performance - self._previous_performance
            step = self.beta * delta_p * direction
            # keep exploring when the performance change is too small to move
            if abs(step) < self.min_step:
                step = math.copysign(self.min_step, step if step != 0.0 else direction)
            step = max(-self.max_step, min(self.max_step, step))
            proposed = limit + step
        elif limit < load:
            proposed = limit + self.gamma
        else:
            proposed = limit - self.gamma

        self._previous_performance = performance
        self._previous_limit = limit
        return proposed
