"""The Parabola Approximation (PA) controller — Sections 4.2 and 5.2.

The performance function is approximated as ``P(n) = a0 + a1*n + a2*n^2``.
The coefficients are estimated from recent (n, P) measurement pairs with a
recursive least-squares estimator with exponentially fading memory
(:class:`~repro.core.rls.RecursiveLeastSquares`).  Once a parabola is
available, its maximum is used as the new load threshold:

    n*(t_{i+1}) = -a1 / (2 * a2)          if a2 < 0

If the estimated parabola opens *upward* (``a2 >= 0``) the estimate is
"obviously unreliable and useless" (Section 5.2); the paper mentions that
several recovery options exist.  They are implemented here as the
:class:`RecoveryPolicy` enum:

``HOLD``
    Keep the previous threshold until the estimate becomes usable again.
``STEP``
    Fall back to an IS-like incremental step in the direction of the last
    performance improvement, which also re-excites the estimator.
``RESET``
    Reset the estimator (forget the misleading history) and hold the
    threshold; used when the shape changed abruptly (Figure 8).
``BOUND``
    Clamp to the static lower bound; the safest but least productive option
    when the system might already be deep in the thrashing region.

The paper also notes (Section 9, discussing Figure 14) that the oscillations
of the PA trajectory are *enforced by the algorithm*: a least-squares fit
needs variation in the measurements, so the controller keeps probing around
the estimated optimum.  This is implemented as a deterministic dither that
alternates ``+probe_amplitude`` / ``-probe_amplitude`` around the estimated
optimum; setting the amplitude to zero disables it.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from repro.core.controller import LoadController
from repro.core.rls import RecursiveLeastSquares
from repro.core.types import IntervalMeasurement


class RecoveryPolicy(enum.Enum):
    """What to do when the estimated parabola opens upward (Section 5.2)."""

    HOLD = "hold"
    STEP = "step"
    RESET = "reset"
    BOUND = "bound"


class ParabolaController(LoadController):
    """Least-squares parabola fit with maximum-seeking control law."""

    name = "parabola-approximation"

    def __init__(self,
                 initial_limit: float = 10.0,
                 forgetting: float = 0.9,
                 probe_amplitude: float = 2.0,
                 recovery: RecoveryPolicy = RecoveryPolicy.STEP,
                 recovery_step: float = 5.0,
                 lower_bound: float = 1.0,
                 upper_bound: float = 1000.0,
                 min_samples: int = 3,
                 max_move: Optional[float] = None,
                 normalisation: Optional[float] = None,
                 collapse_fraction: float = 0.05,
                 best_decay: float = 0.95,
                 performance_index=None):
        """Create a PA controller.

        ``forgetting`` is the aging coefficient ``a`` of Section 5.2 (choose
        a *small* measurement interval and a *large* ``a`` rather than the
        other way round).  ``min_samples`` is the number of measurements
        required before the fit is trusted at all (a parabola has three free
        coefficients).  ``max_move`` limits how far the threshold may move in
        a single interval (default: a quarter of the admissible range), which
        keeps the loop stable when an early, poorly conditioned fit puts the
        vertex far outside the explored region.  ``normalisation`` scales the
        concurrency level before it enters the regression (default: the
        upper bound), which keeps the three regressor components of
        comparable magnitude and the RLS numerically well conditioned.
        """
        super().__init__(initial_limit=initial_limit, lower_bound=lower_bound,
                         upper_bound=upper_bound, performance_index=performance_index)
        if probe_amplitude < 0:
            raise ValueError(f"probe_amplitude must be non-negative, got {probe_amplitude}")
        if recovery_step < 0:
            raise ValueError(f"recovery_step must be non-negative, got {recovery_step}")
        if min_samples < 3:
            raise ValueError(f"min_samples must be >= 3 for a parabola, got {min_samples}")
        self.estimator = RecursiveLeastSquares(dimension=3, forgetting=forgetting)
        self.probe_amplitude = float(probe_amplitude)
        self.recovery = recovery
        self.recovery_step = float(recovery_step)
        self.min_samples = int(min_samples)
        span = upper_bound - lower_bound if math.isfinite(upper_bound) else 4 * initial_limit
        self.max_move = float(max_move) if max_move is not None else max(1.0, span / 4.0)
        self.normalisation = float(normalisation) if normalisation else max(1.0, float(
            upper_bound if math.isfinite(upper_bound) else 10 * initial_limit))
        if not 0.0 <= collapse_fraction < 1.0:
            raise ValueError(f"collapse_fraction must be in [0, 1), got {collapse_fraction}")
        if not 0.0 < best_decay <= 1.0:
            raise ValueError(f"best_decay must be in (0, 1], got {best_decay}")
        self.collapse_fraction = float(collapse_fraction)
        self.best_decay = float(best_decay)
        self._probe_sign = 1
        self._previous_performance: Optional[float] = None
        self._previous_limit: Optional[float] = None
        self._recent_best = 0.0
        self.upward_parabola_events = 0
        self.collapse_events = 0

    # ------------------------------------------------------------------
    # estimation helpers
    # ------------------------------------------------------------------
    def _regressor(self, concurrency: float) -> np.ndarray:
        scaled = concurrency / self.normalisation
        return np.array([1.0, scaled, scaled * scaled])

    @property
    def coefficients(self) -> np.ndarray:
        """Current (a0, a1, a2) in the *unscaled* concurrency coordinate."""
        a0, a1, a2 = self.estimator.theta
        s = self.normalisation
        return np.array([a0, a1 / s, a2 / (s * s)])

    def estimated_optimum(self) -> Optional[float]:
        """Vertex of the fitted parabola, or None if it opens upward/flat."""
        _a0, a1, a2 = self.coefficients
        if a2 >= 0.0 or not math.isfinite(a2):
            return None
        return -a1 / (2.0 * a2)

    def predicted_performance(self, concurrency: float) -> float:
        """Value of the fitted parabola at ``concurrency``."""
        return self.estimator.predict(self._regressor(concurrency))

    # ------------------------------------------------------------------
    def _propose(self, measurement: IntervalMeasurement) -> float:
        concurrency = measurement.mean_concurrency
        performance = self.performance_of(measurement)
        self.estimator.update(self._regressor(concurrency), performance)
        self._recent_best = max(performance, self._recent_best * self.best_decay)

        limit = self.current_limit
        if self.estimator.samples < self.min_samples:
            proposed = self._bootstrap_step(limit)
        elif self._collapsed(measurement):
            # Figure 8 situation: the threshold is deep in the thrashing
            # region and the measured performance has collapsed.  No fit over
            # such measurements is trustworthy; back off decisively.
            self.collapse_events += 1
            proposed = max(self.lower_bound, limit - max(self.max_move, self.recovery_step))
        else:
            optimum = self.estimated_optimum()
            unreliable = optimum is None
            if not unreliable and self.predicted_performance(optimum) <= 0.0:
                # a downward parabola whose peak is still non-positive can only
                # come from a stretch of (near-)zero measurements: the fit
                # carries no usable information either
                unreliable = True
            if unreliable:
                self.upward_parabola_events += 1
                proposed = self._recover(limit, performance)
            else:
                proposed = self._towards(limit, optimum)
                proposed = self._apply_probe(proposed)

        self._previous_performance = performance
        self._previous_limit = limit
        return proposed

    def _collapsed(self, measurement: IntervalMeasurement) -> bool:
        """True when throughput has collapsed although the load is realized.

        The guard only fires when the system actually runs at (close to) the
        threshold -- a throughput drop caused by the offered load going away
        is not overload and must not trigger a back-off.
        """
        if self._recent_best <= 0.0 or self.collapse_fraction <= 0.0:
            return False
        load_realized = measurement.mean_concurrency >= 0.8 * self.current_limit
        return load_realized and measurement.throughput < self.collapse_fraction * self._recent_best

    def _bootstrap_step(self, limit: float) -> float:
        """Before the fit is trusted, probe upward to generate excitation."""
        step = max(self.recovery_step, self.probe_amplitude, 1.0)
        return limit + step

    def _towards(self, limit: float, optimum: float) -> float:
        """Move towards the estimated optimum, at most ``max_move`` per step."""
        move = optimum - limit
        if abs(move) > self.max_move:
            move = math.copysign(self.max_move, move)
        return limit + move

    def _apply_probe(self, proposed: float) -> float:
        """Alternate around the estimate to keep the regression excited."""
        if self.probe_amplitude == 0.0:
            return proposed
        self._probe_sign = -self._probe_sign
        return proposed + self._probe_sign * self.probe_amplitude

    def _recover(self, limit: float, performance: float) -> float:
        """Section 5.2 countermeasures for an upward-opening parabola."""
        if self.recovery is RecoveryPolicy.HOLD:
            return limit
        if self.recovery is RecoveryPolicy.BOUND:
            return self.lower_bound
        if self.recovery is RecoveryPolicy.RESET:
            self.estimator.reset()
            return limit
        # RecoveryPolicy.STEP: one IS-like move in the direction of the last
        # improvement (default upward when there is no history yet); the
        # deep-overload case of Figure 8 is handled separately by the
        # collapse guard in _propose.
        direction = 1
        if self._previous_performance is not None and self._previous_limit is not None:
            improved = performance >= self._previous_performance
            moved_up = limit >= self._previous_limit
            direction = 1 if improved == moved_up else -1
        return limit + direction * self.recovery_step
