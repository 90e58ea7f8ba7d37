"""Tests for the Method of Incremental Steps (IS) controller."""

import pytest

from repro.analytic.synthetic import DynamicOptimumScenario, SyntheticSystem
from repro.core.incremental_steps import IncrementalStepsController, signum
from repro.core.types import IntervalMeasurement
from repro.tp.workload import ConstantSchedule, JumpSchedule


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


class TestSignum:
    def test_positive(self):
        assert signum(2.5) == 1

    def test_zero_is_negative_branch(self):
        # the paper defines signum(0) = -1
        assert signum(0.0) == -1

    def test_negative(self):
        assert signum(-3.0) == -1


class TestParameterValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            IncrementalStepsController(beta=-1.0)
        with pytest.raises(ValueError):
            IncrementalStepsController(gamma=-1.0)
        with pytest.raises(ValueError):
            IncrementalStepsController(delta=-1.0)
        with pytest.raises(ValueError):
            IncrementalStepsController(min_step=-1.0)

    def test_bounds_respected(self):
        controller = IncrementalStepsController(initial_limit=10, lower_bound=5, upper_bound=20)
        assert controller.lower_bound == 5
        assert controller.upper_bound == 20


class TestUpdateRule:
    def test_first_update_probes_upward(self):
        controller = IncrementalStepsController(initial_limit=10, gamma=3)
        new_limit = controller.update(measurement(50.0, 10.0, 10.0))
        assert new_limit > 10.0

    def test_keeps_direction_while_performance_improves(self):
        controller = IncrementalStepsController(initial_limit=10, beta=1.0, delta=100)
        first = controller.update(measurement(50.0, 10.0, 10.0))   # bootstrap, moves up
        second = controller.update(measurement(60.0, first, first))  # improved -> keep going up
        assert second > first
        third = controller.update(measurement(70.0, second, second))
        assert third > second

    def test_reverses_direction_when_performance_drops(self):
        controller = IncrementalStepsController(initial_limit=10, beta=1.0, delta=100)
        first = controller.update(measurement(50.0, 10.0, 10.0))
        second = controller.update(measurement(60.0, first, first))
        assert second > first
        # performance got worse after moving up -> next step must go down
        third = controller.update(measurement(40.0, second, second))
        assert third < second

    def test_step_size_proportional_to_performance_change(self):
        small = IncrementalStepsController(initial_limit=10, beta=1.0, delta=100, max_step=1000)
        large = IncrementalStepsController(initial_limit=10, beta=1.0, delta=100, max_step=1000)
        small.update(measurement(50.0, 10.0, 10.0))
        large.update(measurement(50.0, 10.0, 10.0))
        small_step = small.update(measurement(52.0, 11.0, 11.0)) - small.current_limit
        # note: current_limit is already the new one, so recompute via deltas
        small_limit_before = 11.0
        large_limit_before = 11.0
        small_new = small.current_limit
        large_new = large.update(measurement(70.0, 11.0, 11.0))
        assert abs(large_new - large_limit_before) > abs(small_new - small_limit_before)

    def test_min_step_keeps_exploring_on_flat_performance(self):
        controller = IncrementalStepsController(initial_limit=10, beta=1.0, delta=100, min_step=1.0)
        first = controller.update(measurement(50.0, 10.0, 10.0))
        second = controller.update(measurement(50.0, first, first))
        assert second != first

    def test_max_step_caps_single_move(self):
        controller = IncrementalStepsController(initial_limit=10, beta=10.0, delta=1000,
                                                max_step=5.0, upper_bound=1000)
        first = controller.update(measurement(50.0, 10.0, 10.0))
        second = controller.update(measurement(500.0, first, first))
        assert abs(second - first) <= 5.0

    def test_recoupling_when_load_below_threshold(self):
        # threshold far above the actual load: pull it down by gamma
        controller = IncrementalStepsController(initial_limit=100, gamma=7, delta=5)
        controller.update(measurement(50.0, 99.0, 100.0))  # bootstrap
        limit_before = controller.current_limit
        new_limit = controller.update(measurement(50.0, 20.0, limit_before))
        assert new_limit == pytest.approx(limit_before - 7)

    def test_recoupling_when_load_above_threshold(self):
        controller = IncrementalStepsController(initial_limit=10, gamma=7, delta=5,
                                                upper_bound=500)
        controller.update(measurement(50.0, 10.0, 10.0))
        limit_before = controller.current_limit
        new_limit = controller.update(measurement(50.0, limit_before + 50, limit_before))
        assert new_limit == pytest.approx(limit_before + 7)

    def test_respects_static_bounds(self):
        controller = IncrementalStepsController(initial_limit=5, lower_bound=2, upper_bound=8,
                                                beta=100.0, delta=100)
        for throughput in (10.0, 100.0, 1.0, 200.0, 5.0):
            limit = controller.update(measurement(throughput, controller.current_limit,
                                                  controller.current_limit))
            assert 2 <= limit <= 8


class TestClosedLoopOnSyntheticPlant:
    def test_climbs_to_static_optimum(self):
        scenario = DynamicOptimumScenario.constant(position=60.0, height=100.0)
        controller = IncrementalStepsController(
            initial_limit=10, beta=1.0, gamma=4, delta=10, min_step=2.0,
            lower_bound=2, upper_bound=200)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=0.5, seed=1)
        plant.run(300)
        final_limits = plant.trace.limits[-50:]
        mean_limit = sum(final_limits) / len(final_limits)
        assert 40 <= mean_limit <= 85

    def test_follows_jump_of_the_optimum(self):
        scenario = DynamicOptimumScenario(
            position=JumpSchedule(40.0, 120.0, jump_time=150.0),
            height=ConstantSchedule(100.0),
        )
        controller = IncrementalStepsController(
            initial_limit=10, beta=1.0, gamma=4, delta=10, min_step=2.0,
            lower_bound=2, upper_bound=300)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=0.5, seed=2)
        plant.run(500)
        before_jump = plant.trace.limits[120:150]
        after_jump = plant.trace.limits[-60:]
        assert sum(before_jump) / len(before_jump) < 90
        assert sum(after_jump) / len(after_jump) > 85

    def test_stays_within_bounds_under_noise(self):
        scenario = DynamicOptimumScenario.constant(position=50.0, height=100.0)
        controller = IncrementalStepsController(
            initial_limit=25, beta=2.0, gamma=5, delta=10,
            lower_bound=5, upper_bound=150)
        plant = SyntheticSystem(scenario, controller, interval=1.0, noise_std=10.0, seed=3)
        plant.run(400)
        assert all(5 <= limit <= 150 for limit in plant.trace.limits)
