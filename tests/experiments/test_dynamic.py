"""Tests for the dynamic (tracking) experiment harness."""

import pytest

from repro.core.incremental_steps import IncrementalStepsController
from repro.core.parabola import ParabolaController
from repro.core.static import FixedLimit
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import (
    _reference_optimum,
    jump_scenario,
    run_synthetic_tracking,
    run_tracking_experiment,
    sinusoid_scenario,
)
from repro.sim.random_streams import RandomStreams
from repro.tp.params import WorkloadParams
from repro.tp.workload import JumpSchedule, SinusoidSchedule, Workload


def tiny_params():
    base = default_system_params(seed=5)
    return base.with_changes(
        n_terminals=60,
        n_cpus=2,
        workload=WorkloadParams(db_size=400, accesses_per_txn=4,
                                query_fraction=0.25, write_fraction=0.5),
    )


def tiny_scale():
    return ExperimentScale(
        stationary_horizon=4.0,
        warmup=1.0,
        offered_loads=(10, 40),
        tracking_horizon=24.0,
        measurement_interval=1.5,
        synthetic_steps=60,
    )


class TestScenarioHelpers:
    def test_jump_scenario_builds_schedule(self):
        parameter, schedule = jump_scenario("accesses", 4, 16, 100.0)
        assert parameter == "accesses"
        assert isinstance(schedule, JumpSchedule)
        assert schedule(50.0) == 4
        assert schedule(150.0) == 16

    def test_sinusoid_scenario_builds_schedule(self):
        parameter, schedule = sinusoid_scenario("query_fraction", 0.4, 0.2, 100.0)
        assert parameter == "query_fraction"
        assert isinstance(schedule, SinusoidSchedule)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            jump_scenario("page_size", 1, 2, 3.0)


class TestSimulationTracking:
    def test_tracking_run_produces_trace_and_reference(self):
        controller = IncrementalStepsController(initial_limit=5, upper_bound=60,
                                                gamma=3, delta=6)
        result = run_tracking_experiment(
            controller, jump_scenario("accesses", 4, 8, 12.0),
            base_params=tiny_params(), scale=tiny_scale())
        assert result.controller == "incremental-steps"
        assert result.varied_parameter == "accesses"
        assert len(result.trace) == len(result.reference_optima)
        assert len(result.trace) >= 10
        assert result.total_commits > 0
        assert all(optimum > 0 for optimum in result.reference_optima)

    def test_threshold_and_reference_series_align(self):
        controller = ParabolaController(initial_limit=5, upper_bound=60, probe_amplitude=1.0)
        result = run_tracking_experiment(
            controller, jump_scenario("query_fraction", 0.1, 0.6, 12.0),
            base_params=tiny_params(), scale=tiny_scale())
        thresholds = result.threshold_series()
        references = result.reference_series()
        assert len(thresholds) == len(references)
        assert thresholds[0][0] == references[0][0]

    def test_limits_respect_controller_bounds(self):
        controller = IncrementalStepsController(initial_limit=5, lower_bound=2,
                                                upper_bound=30, gamma=3, delta=6)
        result = run_tracking_experiment(
            controller, sinusoid_scenario("write_fraction", 0.5, 0.3, 20.0),
            base_params=tiny_params(), scale=tiny_scale())
        assert all(2 <= limit <= 30 for limit in result.trace.limits)

    @pytest.mark.parametrize("parameter, mean, amplitude", [
        ("accesses", 16.0, 14.0),
        ("query_fraction", 0.5, 0.45),
        ("write_fraction", 0.5, 0.45),
    ])
    def test_every_workload_state_gets_its_own_reference_optimum(
            self, parameter, mean, amplitude):
        """Regression: only the first 20 distinct workload states got their
        own analytic optimum; every later state silently reused the first
        state's, which corrupted ``reference_optima`` and the tracking error.

        Half a sinusoid period, from its minimum to its maximum, passes
        more than 20 distinct states in 25 samples.
        """
        params = tiny_params().with_changes(n_terminals=20)
        scenario = (parameter, SinusoidSchedule(mean, amplitude, period=50.0, phase=12.5))
        scale = ExperimentScale(
            stationary_horizon=4.0, warmup=1.0, offered_loads=(10,),
            tracking_horizon=25.0, measurement_interval=1.0, synthetic_steps=10)
        result = run_tracking_experiment(
            FixedLimit(10, upper_bound=20), scenario, base_params=params, scale=scale)

        reference = Workload(params.workload, RandomStreams(params.seed),
                             **{parameter: scenario[1]})
        states = {reference.params_at(t) for t in result.trace.times}
        assert len(result.trace) == 25
        assert len(states) > 20, "fewer than 21 workload states: test is vacuous"
        expected = [_reference_optimum(params, reference.params_at(t))
                    for t in result.trace.times]
        assert result.reference_optima == [optimum for optimum, _peak in expected]
        assert result.reference_peaks == [peak for _optimum, peak in expected]


class TestSyntheticTracking:
    def test_synthetic_run_shape(self):
        controller = ParabolaController(initial_limit=20, upper_bound=400,
                                        probe_amplitude=3.0, max_move=50.0)
        result = run_synthetic_tracking(
            controller, position_schedule=JumpSchedule(100.0, 250.0, 100.0),
            steps=200, noise_std=1.0, seed=1)
        assert len(result.trace) == 200
        assert result.varied_parameter == "synthetic-optimum"
        assert result.reference_optima[0] == 100.0
        assert result.reference_optima[-1] == 250.0

    def test_synthetic_tracking_follows_jump(self):
        controller = ParabolaController(initial_limit=50, upper_bound=600,
                                        probe_amplitude=4.0, forgetting=0.85,
                                        max_move=60.0)
        result = run_synthetic_tracking(
            controller, position_schedule=JumpSchedule(150.0, 400.0, 120.0),
            steps=360, noise_std=2.0, seed=2)
        settled = result.trace.limits[-40:]
        assert sum(settled) / len(settled) == pytest.approx(400.0, rel=0.25)

    def test_default_height_schedule(self):
        controller = IncrementalStepsController(initial_limit=20, upper_bound=300)
        result = run_synthetic_tracking(
            controller, position_schedule=JumpSchedule(50.0, 80.0, 30.0), steps=60)
        assert all(peak == pytest.approx(100.0) for peak in result.reference_peaks)
