"""Tests for the synthetic overload function and the synthetic plant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.synthetic import (
    DynamicOptimumScenario,
    SyntheticOverloadFunction,
    SyntheticSystem,
)
from repro.core.static import FixedLimit
from repro.tp.workload import ConstantSchedule, JumpSchedule, SinusoidSchedule


class TestOverloadFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticOverloadFunction(optimum_position=0.0, peak_performance=10.0)
        with pytest.raises(ValueError):
            SyntheticOverloadFunction(optimum_position=10.0, peak_performance=-1.0)
        with pytest.raises(ValueError):
            SyntheticOverloadFunction(optimum_position=10.0, peak_performance=1.0,
                                      overload_decay=-0.5)

    def test_zero_load_zero_performance(self):
        function = SyntheticOverloadFunction(50.0, 100.0)
        assert function.value(0.0) == 0.0
        assert function.value(-5.0) == 0.0

    def test_peak_at_optimum(self):
        function = SyntheticOverloadFunction(50.0, 100.0)
        assert function.value(50.0) == pytest.approx(100.0)

    def test_monotone_increase_before_optimum(self):
        function = SyntheticOverloadFunction(50.0, 100.0)
        values = [function.value(load) for load in range(0, 51, 5)]
        assert values == sorted(values)

    def test_monotone_decrease_after_optimum(self):
        function = SyntheticOverloadFunction(50.0, 100.0, overload_decay=1.5)
        values = [function.value(load) for load in range(50, 200, 10)]
        assert values == sorted(values, reverse=True)

    def test_performance_clipped_at_zero_in_deep_overload(self):
        function = SyntheticOverloadFunction(50.0, 100.0, overload_decay=2.0)
        assert function.value(1000.0) == 0.0

    def test_callable(self):
        function = SyntheticOverloadFunction(50.0, 100.0)
        assert function(25.0) == function.value(25.0)

    @given(position=st.floats(min_value=1.0, max_value=500.0),
           peak=st.floats(min_value=0.0, max_value=1000.0),
           load=st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=100, deadline=None)
    def test_unimodal_and_bounded_property(self, position, peak, load):
        function = SyntheticOverloadFunction(position, peak)
        value = function.value(load)
        assert 0.0 <= value <= peak + 1e-9


class TestDynamicScenario:
    def test_constant_scenario(self):
        scenario = DynamicOptimumScenario.constant(position=40.0, height=80.0)
        assert scenario.optimum_at(0.0) == 40.0
        assert scenario.optimum_at(1e6) == 40.0
        assert scenario.peak_at(3.0) == 80.0

    def test_jump_scenario_moves_optimum(self):
        scenario = DynamicOptimumScenario(
            position=JumpSchedule(40.0, 100.0, jump_time=10.0),
            height=ConstantSchedule(80.0))
        assert scenario.optimum_at(5.0) == 40.0
        assert scenario.optimum_at(15.0) == 100.0
        before = scenario.function_at(5.0)
        after = scenario.function_at(15.0)
        assert before.optimum_position == 40.0
        assert after.optimum_position == 100.0

    def test_height_schedule_changes_peak(self):
        scenario = DynamicOptimumScenario(
            position=ConstantSchedule(40.0),
            height=SinusoidSchedule(mean=100.0, amplitude=20.0, period=100.0))
        peaks = [scenario.peak_at(t) for t in range(0, 100, 5)]
        assert max(peaks) > 115.0
        assert min(peaks) < 85.0


class TestSyntheticSystem:
    def test_validation(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        with pytest.raises(ValueError):
            SyntheticSystem(scenario, FixedLimit(10), interval=0.0)
        with pytest.raises(ValueError):
            SyntheticSystem(scenario, FixedLimit(10), noise_std=-1.0)

    def test_load_clipped_at_threshold(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        plant = SyntheticSystem(scenario, FixedLimit(25, upper_bound=100),
                                offered_load=1000.0)
        plant.run(10)
        assert all(load <= 25.0 + 1e-9 for load in plant.trace.concurrency)

    def test_load_limited_by_offered_load(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        plant = SyntheticSystem(scenario, FixedLimit(500, upper_bound=1000),
                                offered_load=15.0)
        plant.run(10)
        assert all(load == pytest.approx(15.0) for load in plant.trace.concurrency)

    def test_noise_free_run_is_exact(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        plant = SyntheticSystem(scenario, FixedLimit(40, upper_bound=100))
        plant.run(5)
        assert all(value == pytest.approx(80.0) for value in plant.trace.throughput)

    def test_reference_optima_recorded(self):
        scenario = DynamicOptimumScenario(
            position=JumpSchedule(40.0, 100.0, jump_time=5.0),
            height=ConstantSchedule(80.0))
        plant = SyntheticSystem(scenario, FixedLimit(40, upper_bound=200), interval=1.0)
        plant.run(10)
        assert plant.reference_optima[0] == 40.0
        assert plant.reference_optima[-1] == 100.0

    def test_negative_steps_rejected(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        plant = SyntheticSystem(scenario, FixedLimit(40, upper_bound=100))
        with pytest.raises(ValueError):
            plant.run(-1)

    def test_seeded_noise_is_reproducible(self):
        scenario = DynamicOptimumScenario.constant(40.0, 80.0)
        first = SyntheticSystem(scenario, FixedLimit(40, upper_bound=100),
                                noise_std=5.0, seed=3)
        second = SyntheticSystem(scenario, FixedLimit(40, upper_bound=100),
                                 noise_std=5.0, seed=3)
        first.run(20)
        second.run(20)
        assert first.trace.throughput == second.trace.throughput
