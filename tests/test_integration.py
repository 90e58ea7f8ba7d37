"""End-to-end integration tests: the paper's headline claims at small scale.

These tests run the full stack (DES kernel, transaction model, optimistic
CC, admission gate, measurement loop, controllers) on configurations small
enough for the test suite, and check the qualitative results of the paper:

1. without control the system thrashes (throughput drops as the offered
   load grows);
2. with either adaptive controller (IS or PA) attached, the heavy-load
   throughput stays close to the system's peak;
3. the feedback controllers do not need to know the workload parameters
   (unlike the Tay rule), yet perform at least comparably under a workload
   change.
"""

import pytest

from repro.core.incremental_steps import IncrementalStepsController
from repro.core.parabola import ParabolaController
from repro.core.static import FixedLimit
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario, run_tracking_experiment
from repro.experiments.stationary import run_stationary_point
from repro.runner import run_sweep, stationary_sweep_spec, stationary_sweeps
from repro.tp.params import WorkloadParams


@pytest.fixture(scope="module")
def params():
    base = default_system_params(seed=11)
    return base.with_changes(
        n_cpus=2,
        workload=WorkloadParams(db_size=600, accesses_per_txn=6,
                                query_fraction=0.25, write_fraction=0.5),
    )


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale(
        stationary_horizon=10.0,
        warmup=3.0,
        offered_loads=(15, 60, 200),
        tracking_horizon=40.0,
        measurement_interval=1.5,
        synthetic_steps=100,
    )


@pytest.fixture(scope="module")
def uncontrolled_sweep(params, scale):
    spec = stationary_sweep_spec("stationary", scale, params, [("without control", None)])
    (sweep,) = stationary_sweeps(run_sweep(spec)).values()
    return sweep


class TestThrashingWithoutControl(object):
    def test_throughput_drops_under_overload(self, uncontrolled_sweep):
        moderate = uncontrolled_sweep.throughput_at(60)
        heavy = uncontrolled_sweep.throughput_at(200)
        assert heavy < 0.85 * moderate

    def test_restart_ratio_explodes_under_overload(self, params, scale):
        light = run_stationary_point(params.with_changes(n_terminals=15),
                                     horizon=scale.stationary_horizon, warmup=scale.warmup)
        heavy = run_stationary_point(params.with_changes(n_terminals=200),
                                     horizon=scale.stationary_horizon, warmup=scale.warmup)
        assert heavy.restart_ratio > 3 * max(light.restart_ratio, 0.05)


class TestControlPreventsThrashing(object):
    @pytest.mark.parametrize("factory", [
        lambda p: IncrementalStepsController(initial_limit=8, beta=1.0, gamma=3, delta=8,
                                             lower_bound=2, upper_bound=p.n_terminals),
        lambda p: ParabolaController(initial_limit=8, probe_amplitude=2.0, forgetting=0.9,
                                     lower_bound=2, upper_bound=p.n_terminals),
    ], ids=["incremental-steps", "parabola"])
    def test_controller_recovers_peak_throughput_at_heavy_load(
            self, params, scale, uncontrolled_sweep, factory):
        heavy_params = params.with_changes(n_terminals=200)
        controlled = run_stationary_point(
            heavy_params, controller=factory(heavy_params),
            horizon=scale.stationary_horizon, warmup=scale.warmup,
            measurement_interval=scale.measurement_interval)
        uncontrolled_heavy = uncontrolled_sweep.throughput_at(200)
        peak_uncontrolled = uncontrolled_sweep.peak().throughput
        # controlled throughput at heavy load beats the uncontrolled system
        assert controlled.throughput > uncontrolled_heavy
        # and reaches a solid fraction of the best the system can do at all
        assert controlled.throughput > 0.7 * peak_uncontrolled

    def test_fixed_limit_tuned_for_the_wrong_workload_underperforms(self, params, scale):
        """A fixed bound tuned for small transactions starves large ones."""
        heavy_params = params.with_changes(
            n_terminals=200,
            workload=params.workload.with_changes(accesses_per_txn=12))
        generous = run_stationary_point(
            heavy_params,
            controller=ParabolaController(
                initial_limit=8, probe_amplitude=2.0, lower_bound=2,
                upper_bound=heavy_params.n_terminals),
            horizon=scale.stationary_horizon, warmup=scale.warmup,
            measurement_interval=scale.measurement_interval)
        starved = run_stationary_point(
            heavy_params,
            controller=FixedLimit(2, upper_bound=heavy_params.n_terminals),
            horizon=scale.stationary_horizon, warmup=scale.warmup,
            measurement_interval=scale.measurement_interval)
        assert generous.throughput > starved.throughput


class TestAdaptationToWorkloadChange(object):
    def test_controllers_keep_committing_through_a_jump(self, params, scale):
        jump = jump_scenario("accesses", 4, 10, scale.tracking_horizon / 2)
        for factory in (
                lambda: IncrementalStepsController(initial_limit=8, gamma=3, delta=8,
                                                   lower_bound=2, upper_bound=120),
                lambda: ParabolaController(initial_limit=8, probe_amplitude=2.0,
                                           lower_bound=2, upper_bound=120)):
            result = run_tracking_experiment(
                factory(), jump, base_params=params.with_changes(n_terminals=120),
                scale=scale)
            # commits keep happening in the second half of the run
            second_half = [t for t, thr in zip(result.trace.times, result.trace.throughput)
                           if t > scale.tracking_horizon / 2 and thr > 0]
            assert second_half, "no commits at all after the workload jump"
            assert result.total_commits > 100
