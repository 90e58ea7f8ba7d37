"""Synthetic time-varying overload functions (Section 3, Figure 2).

The paper formulates load control as a *dynamic optimum search problem*: the
controller sees only realized (load, performance) pairs of an unknown,
time-varying unimodal function and has to track its maximum ("find the ridge
of the mountain and track it along the time axis").

This module implements that abstraction directly:

* :class:`SyntheticOverloadFunction` -- a unimodal performance function
  ``P(n)`` with configurable optimum position, height and asymmetry
  (performance decays faster beyond the optimum, as in thrashing);
* :class:`DynamicOptimumScenario` -- time profiles for the optimum position
  and height (constant, jump, sinusoid), i.e. the "mountain ridge" of
  Figure 2;
* :class:`SyntheticSystem` -- a minimal closed-loop plant: at each step it
  receives the controller's threshold, realizes a load (the offered load
  clipped at the threshold), evaluates the noisy performance function and
  produces an :class:`~repro.core.types.IntervalMeasurement`.

Driving the real controllers against this synthetic plant gives fast,
precisely controlled tracking experiments (used for unit tests, for the
Figure 13/14 shape benchmarks at synthetic scale and for the ablation
studies), while the discrete-event model provides the full-fidelity version
of the same experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.controller import LoadController
from repro.core.types import ControlTrace, IntervalMeasurement
from repro.tp.workload import ConstantSchedule, ParameterSchedule


@dataclass(frozen=True)
class SyntheticOverloadFunction:
    """Unimodal load/performance function with thrashing-like asymmetry.

    For a load ``n`` and optimum position ``n_opt`` with peak height
    ``p_max``::

        P(n) = p_max * (n / n_opt) * (2 - n / n_opt)          for n <= n_opt
        P(n) = p_max * max(0, 1 - decay * ((n - n_opt)/n_opt)) for n >  n_opt

    The left branch is the rising part of an inverted parabola (linear for
    small ``n``, flat at the optimum); the right branch falls off linearly
    with slope ``decay`` and is clipped at zero, mimicking the "sometimes
    sudden drop in throughput" of the overload phase.
    """

    optimum_position: float
    peak_performance: float
    overload_decay: float = 1.5

    def __post_init__(self) -> None:
        if self.optimum_position <= 0:
            raise ValueError(f"optimum_position must be positive, got {self.optimum_position}")
        if self.peak_performance < 0:
            raise ValueError(f"peak_performance must be >= 0, got {self.peak_performance}")
        if self.overload_decay < 0:
            raise ValueError(f"overload_decay must be >= 0, got {self.overload_decay}")

    def value(self, load: float) -> float:
        """Performance at ``load`` (0 for non-positive loads)."""
        if load <= 0:
            return 0.0
        ratio = load / self.optimum_position
        if ratio <= 1.0:
            return self.peak_performance * ratio * (2.0 - ratio)
        return self.peak_performance * max(0.0, 1.0 - self.overload_decay * (ratio - 1.0))

    def __call__(self, load: float) -> float:
        return self.value(load)


class DynamicOptimumScenario:
    """Time profiles of the optimum position and peak height (Figure 2)."""

    def __init__(self,
                 position: ParameterSchedule,
                 height: ParameterSchedule,
                 overload_decay: float = 1.5):
        self.position = position
        self.height = height
        self.overload_decay = overload_decay

    @classmethod
    def constant(cls, position: float, height: float, overload_decay: float = 1.5
                 ) -> "DynamicOptimumScenario":
        """A stationary mountain: position and height never change."""
        return cls(ConstantSchedule(position), ConstantSchedule(height), overload_decay)

    def function_at(self, time: float) -> SyntheticOverloadFunction:
        """The overload function in effect at ``time``."""
        return SyntheticOverloadFunction(
            optimum_position=max(1e-9, self.position(time)),
            peak_performance=max(0.0, self.height(time)),
            overload_decay=self.overload_decay,
        )

    def optimum_at(self, time: float) -> float:
        """True optimum position at ``time`` (the reference for tracking error)."""
        return self.position(time)

    def peak_at(self, time: float) -> float:
        """True peak performance at ``time``."""
        return self.height(time)


class SyntheticSystem:
    """A minimal plant for closed-loop controller experiments.

    Each :meth:`step` represents one measurement interval: the offered load
    is clipped at the controller's threshold, the (noisy) performance is
    evaluated at the realized load, and the controller is updated with the
    resulting measurement.
    """

    def __init__(self,
                 scenario: DynamicOptimumScenario,
                 controller: LoadController,
                 offered_load: float = math.inf,
                 interval: float = 1.0,
                 noise_std: float = 0.0,
                 load_noise_std: float = 0.0,
                 seed: int = 0):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if noise_std < 0 or load_noise_std < 0:
            raise ValueError("noise standard deviations must be non-negative")
        self.scenario = scenario
        self.controller = controller
        self.offered_load = float(offered_load)
        self.interval = float(interval)
        self.noise_std = float(noise_std)
        self.load_noise_std = float(load_noise_std)
        self.rng = np.random.default_rng(seed)
        self.time = 0.0
        self.trace = ControlTrace()
        self.reference_optima: list = []

    # ------------------------------------------------------------------
    def realized_load(self, limit: float) -> float:
        """Load that materializes under threshold ``limit`` this interval."""
        load = min(self.offered_load, limit)
        if self.load_noise_std > 0:
            load = load + float(self.rng.normal(0.0, self.load_noise_std))
        return max(0.0, load)

    def step(self) -> IntervalMeasurement:
        """Advance one measurement interval and update the controller."""
        self.time += self.interval
        function = self.scenario.function_at(self.time)
        limit = self.controller.current_limit
        load = self.realized_load(limit)
        performance = function.value(load)
        if self.noise_std > 0:
            performance = max(0.0, performance + float(self.rng.normal(0.0, self.noise_std)))
        measurement = IntervalMeasurement(
            time=self.time,
            interval_length=self.interval,
            throughput=performance,
            mean_concurrency=load,
            concurrency_at_sample=load,
            current_limit=limit,
            commits=int(round(performance * self.interval)),
        )
        new_limit = self.controller.update(measurement)
        self.trace.append(measurement, new_limit)
        self.reference_optima.append(self.scenario.optimum_at(self.time))
        return measurement

    def run(self, steps: int) -> ControlTrace:
        """Run ``steps`` intervals and return the control trace."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self.trace
