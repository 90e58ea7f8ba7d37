"""Tests for the Parabola Approximation (PA) controller."""

import pytest

from repro.analytic.synthetic import DynamicOptimumScenario, SyntheticSystem
from repro.core.parabola import ParabolaController, RecoveryPolicy
from repro.core.types import IntervalMeasurement
from repro.tp.workload import ConstantSchedule, JumpSchedule, SinusoidSchedule


def measurement(throughput, concurrency, limit, time=1.0):
    return IntervalMeasurement(
        time=time,
        interval_length=1.0,
        throughput=throughput,
        mean_concurrency=concurrency,
        concurrency_at_sample=concurrency,
        current_limit=limit,
        commits=int(throughput),
    )


def feed_parabola(controller, loads, a0=0.0, a1=4.0, a2=-0.05):
    """Feed noiseless samples of a known parabola to the controller."""
    for index, load in enumerate(loads):
        performance = a0 + a1 * load + a2 * load * load
        controller.update(measurement(performance, load, controller.current_limit,
                                      time=float(index + 1)))


class TestValidation:
    def test_negative_probe_rejected(self):
        with pytest.raises(ValueError):
            ParabolaController(probe_amplitude=-1.0)

    def test_negative_recovery_step_rejected(self):
        with pytest.raises(ValueError):
            ParabolaController(recovery_step=-1.0)

    def test_min_samples_at_least_three(self):
        with pytest.raises(ValueError):
            ParabolaController(min_samples=2)


class TestEstimation:
    def test_estimated_optimum_matches_true_vertex(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        probe_amplitude=0.0, forgetting=1.0)
        # true optimum of 4n - 0.05 n^2 is at n = 40
        feed_parabola(controller, [5, 15, 25, 35, 45, 55, 30, 20, 50, 40])
        assert controller.estimated_optimum() == pytest.approx(40.0, abs=1.0)

    def test_coefficients_in_unscaled_coordinates(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        probe_amplitude=0.0, forgetting=1.0)
        feed_parabola(controller, [5, 15, 25, 35, 45, 55, 30, 20, 50, 40],
                      a0=2.0, a1=4.0, a2=-0.05)
        a0, a1, a2 = controller.coefficients
        assert a0 == pytest.approx(2.0, abs=1.5)
        assert a1 == pytest.approx(4.0, abs=0.1)
        assert a2 == pytest.approx(-0.05, abs=0.005)

    def test_predicted_performance(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        probe_amplitude=0.0, forgetting=1.0)
        feed_parabola(controller, [5, 15, 25, 35, 45, 55, 30, 20, 50, 40])
        assert controller.predicted_performance(40.0) == pytest.approx(
            4 * 40 - 0.05 * 1600, rel=0.05)

    def test_estimated_optimum_none_for_upward_parabola(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        probe_amplitude=0.0, forgetting=1.0)
        # convex data: performance grows quadratically with load
        feed_parabola(controller, [5, 15, 25, 35, 45, 55], a0=0.0, a1=0.0, a2=0.1)
        assert controller.estimated_optimum() is None
        assert controller.upward_parabola_events > 0


class TestControlLaw:
    def test_moves_towards_the_vertex(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        probe_amplitude=0.0, max_move=100.0, forgetting=1.0)
        feed_parabola(controller, [5, 15, 25, 35, 45, 55, 30, 20, 50, 40])
        assert controller.current_limit == pytest.approx(40.0, abs=2.0)

    def test_max_move_limits_single_step(self):
        controller = ParabolaController(initial_limit=5, upper_bound=500,
                                        probe_amplitude=0.0, max_move=3.0,
                                        recovery_step=3.0, forgetting=1.0)
        limits = [controller.current_limit]
        for index, load in enumerate([5, 15, 25, 35, 45, 55]):
            performance = 4.0 * load - 0.05 * load * load
            controller.update(measurement(performance, load, controller.current_limit,
                                          time=float(index + 1)))
            limits.append(controller.current_limit)
        # no single move (bootstrap, recovery or fit-driven) exceeds 3
        steps = [abs(b - a) for a, b in zip(limits, limits[1:])]
        assert max(steps) <= 3.0 + 1e-9

    def test_probe_alternates_sign(self):
        controller = ParabolaController(initial_limit=10, upper_bound=200,
                                        probe_amplitude=4.0, max_move=500.0, forgetting=1.0)
        feed_parabola(controller, [5, 15, 25, 35, 45, 55, 30, 20, 50, 40])
        limit_a = controller.current_limit
        controller.update(measurement(4 * 40 - 0.05 * 1600, 40.0, limit_a, time=20.0))
        limit_b = controller.current_limit
        controller.update(measurement(4 * 40 - 0.05 * 1600, 40.0, limit_b, time=21.0))
        limit_c = controller.current_limit
        # successive settled limits oscillate around the vertex
        assert (limit_b - limit_a) * (limit_c - limit_b) < 0

    def test_bootstrap_probes_before_enough_samples(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100, min_samples=3)
        first = controller.update(measurement(20.0, 10.0, 10.0))
        assert first > 10.0

    def test_respects_bounds(self):
        controller = ParabolaController(initial_limit=10, lower_bound=5, upper_bound=50,
                                        probe_amplitude=10.0, forgetting=1.0)
        feed_parabola(controller, [10, 20, 30, 40, 48, 12, 44, 18])
        for load in (5, 45, 25, 35):
            performance = 4 * load - 0.05 * load * load
            limit = controller.update(measurement(performance, load, controller.current_limit))
            assert 5 <= limit <= 50


class TestRecoveryPolicies:
    def feed_convex(self, controller):
        feed_parabola(controller, [5, 15, 25, 35, 45, 55], a0=0.0, a1=0.0, a2=0.1)

    def test_hold_keeps_previous_limit(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        recovery=RecoveryPolicy.HOLD,
                                        probe_amplitude=0.0, forgetting=1.0)
        self.feed_convex(controller)
        limit_before = controller.current_limit
        controller.update(measurement(0.1 * 60 * 60, 60.0, limit_before))
        assert controller.current_limit == pytest.approx(limit_before)

    def test_bound_falls_to_lower_bound(self):
        controller = ParabolaController(initial_limit=10, lower_bound=3, upper_bound=100,
                                        recovery=RecoveryPolicy.BOUND,
                                        probe_amplitude=0.0, forgetting=1.0)
        self.feed_convex(controller)
        assert controller.current_limit == 3

    def test_reset_clears_the_estimator(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        recovery=RecoveryPolicy.RESET,
                                        probe_amplitude=0.0, forgetting=1.0)
        self.feed_convex(controller)
        assert controller.estimator.samples <= 1

    def test_step_recovery_moves_the_limit(self):
        controller = ParabolaController(initial_limit=10, upper_bound=100,
                                        recovery=RecoveryPolicy.STEP, recovery_step=5.0,
                                        probe_amplitude=0.0, forgetting=1.0)
        limit_before = controller.current_limit
        self.feed_convex(controller)
        assert controller.current_limit != limit_before
        assert controller.upward_parabola_events > 0


class TestClosedLoopOnSyntheticPlant:
    def test_converges_to_static_optimum(self):
        scenario = DynamicOptimumScenario.constant(position=60.0, height=100.0)
        controller = ParabolaController(initial_limit=10, lower_bound=2, upper_bound=200,
                                        probe_amplitude=3.0, forgetting=0.9, max_move=30.0)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=0.5, seed=5)
        plant.run(300)
        settled = plant.trace.limits[-50:]
        assert sum(settled) / len(settled) == pytest.approx(60.0, abs=12.0)

    def test_tracks_jump_of_the_optimum(self):
        scenario = DynamicOptimumScenario(
            position=JumpSchedule(50.0, 150.0, jump_time=200.0),
            height=ConstantSchedule(100.0))
        controller = ParabolaController(initial_limit=20, lower_bound=2, upper_bound=400,
                                        probe_amplitude=4.0, forgetting=0.85, max_move=40.0)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=1.0, seed=6)
        plant.run(600)
        before = plant.trace.limits[150:200]
        after = plant.trace.limits[-80:]
        assert sum(before) / len(before) == pytest.approx(50.0, abs=20.0)
        assert sum(after) / len(after) == pytest.approx(150.0, abs=35.0)

    def test_tracks_sinusoidal_optimum(self):
        scenario = DynamicOptimumScenario(
            position=SinusoidSchedule(mean=80.0, amplitude=30.0, period=200.0),
            height=ConstantSchedule(100.0))
        controller = ParabolaController(initial_limit=40, lower_bound=2, upper_bound=300,
                                        probe_amplitude=4.0, forgetting=0.85, max_move=25.0)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=1.0, seed=7)
        plant.run(600)
        # after the initial transient the threshold stays inside the swept band
        settled = plant.trace.limits[100:]
        assert all(25.0 <= limit <= 135.0 for limit in settled)
        # and it actually moves with the optimum rather than freezing
        assert max(settled) - min(settled) > 20.0
