"""Tests of the top-level public API surface.

A downstream user should be able to build the whole feedback loop from the
names re-exported by ``repro`` and its subpackages, without reaching into
private modules.  These tests pin that surface.
"""

import math

import repro
from repro import analytic, cc, core, experiments, sim, tp


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing name {name!r}"

    def test_subpackage_all_names_resolve(self):
        for package in (sim, tp, cc, core, analytic, experiments):
            for name in package.__all__:
                assert hasattr(package, name), (
                    f"{package.__name__}.__all__ advertises missing name {name!r}")

    def test_controllers_available_at_top_level(self):
        assert repro.IncrementalStepsController is core.IncrementalStepsController
        assert repro.ParabolaController is core.ParabolaController
        assert repro.NoControl is core.NoControl
        assert repro.FixedLimit is core.FixedLimit


class TestEndToEndViaPublicApi:
    def test_quickstart_flow(self):
        """The README quickstart, at miniature scale."""
        params = repro.SystemParams(
            n_terminals=40, think_time=0.2, n_cpus=2,
            cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
            disk_per_access=0.005, disk_commit=0.005, seed=21,
            workload=repro.WorkloadParams(db_size=300, accesses_per_txn=4))
        system = repro.TransactionSystem(params)
        controller = repro.ParabolaController(initial_limit=5, lower_bound=2,
                                              upper_bound=params.n_terminals)
        loop = system.attach_controller(controller, interval=1.0)
        system.run(until=15.0)

        summary = system.summary()
        assert summary["throughput"] > 0
        assert len(loop.trace) >= 10
        assert all(2 <= limit <= params.n_terminals for limit in loop.trace.limits)

    def test_controller_against_synthetic_plant_via_public_api(self):
        scenario = analytic.DynamicOptimumScenario.constant(position=30.0, height=50.0)
        controller = repro.IncrementalStepsController(initial_limit=5, lower_bound=2,
                                                      upper_bound=100, min_step=2.0)
        plant = analytic.SyntheticSystem(scenario, controller, noise_std=0.2, seed=4)
        trace = plant.run(150)
        assert len(trace) == 150
        settled = trace.limits[-30:]
        assert 15 <= sum(settled) / len(settled) <= 55

    def test_experiments_namespace(self):
        scale = experiments.ExperimentScale.smoke()
        assert scale.stationary_horizon > 0
        params = experiments.default_system_params()
        assert params.n_terminals > 0
        assert math.isfinite(experiments.contention_bound_params().think_time)
