"""Tests for the scenario registry and the top-level run_sweep API."""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.stationary import StationarySweep
from repro.runner import (
    ControllerSpec,
    available_scenarios,
    build_sweep,
    run_sweep,
    stationary_sweep_spec,
    stationary_sweeps,
    tracking_results,
    tracking_sweep_spec,
)
from repro.runner.specs import KIND_STATIONARY, KIND_TRACKING

#: small enough for test runs; mirrors the smoke preset but tighter
TINY = ExperimentScale(
    stationary_horizon=2.0,
    warmup=0.5,
    offered_loads=(10, 30),
    tracking_horizon=12.0,
    measurement_interval=2.0,
    synthetic_steps=30,
)


class TestRegistry:
    def test_paper_scenarios_are_registered(self):
        names = available_scenarios()
        for name in ("cc_compare", "deadlock_resolution",
                     "displacement_policies", "fig12_stationary",
                     "fig13_is_jump", "fig14_pa_jump", "mixed_classes",
                     "sinusoid", "thrashing"):
            assert name in names

    def test_cc_compare_structure(self):
        from repro.cc import CCSpec

        sweep = build_sweep("cc_compare", scale=TINY)
        # 2 schemes x (uncontrolled + IS) x offered loads
        assert len(sweep) == 4 * len(TINY.offered_loads)
        labels = {cell.label for cell in sweep.cells}
        assert labels == {"OCC without control", "OCC IS control",
                          "2PL without control", "2PL IS control"}
        for cell in sweep.cells:
            assert cell.kind == KIND_STATIONARY
            assert isinstance(cell.cc, CCSpec)
            expected = ("timestamp_cert" if cell.label.startswith("OCC")
                        else "two_phase_locking")
            assert cell.cc.kind == expected

    def test_cc_compare_runs_both_schemes(self):
        result = run_sweep("cc_compare", scale=TINY, workers=2)
        assert len(result.results) == 4 * len(TINY.offered_loads)
        assert all(r.metrics["throughput"] > 0 for r in result.results)
        # 2PL resolves conflicts by blocking: at the light load of the tiny
        # grid it should restart (deadlock) much more rarely than OCC aborts
        occ = [r for r in result.results if r.label == "OCC without control"]
        tpl = [r for r in result.results if r.label == "2PL without control"]
        assert sum(r.metrics["restart_ratio"] for r in tpl) <= \
            sum(r.metrics["restart_ratio"] for r in occ)

    def test_deadlock_resolution_structure(self):
        from repro.cc import CCSpec

        sweep = build_sweep("deadlock_resolution", scale=TINY)
        # 3 locking variants x (uncontrolled + IS) x offered loads
        assert len(sweep) == 6 * len(TINY.offered_loads)
        kinds_by_prefix = {"detect": "two_phase_locking",
                           "wound-wait": "wound_wait",
                           "wait-die": "wait_die"}
        labels = {cell.label for cell in sweep.cells}
        assert labels == {f"{prefix} {suffix}"
                          for prefix in kinds_by_prefix
                          for suffix in ("without control", "IS control")}
        for cell in sweep.cells:
            assert cell.kind == KIND_STATIONARY
            assert cell.observers == ("aborts_by_reason",)
            assert isinstance(cell.cc, CCSpec)
            prefix = cell.label.rsplit(" ", 2)[0]
            assert cell.cc.kind == kinds_by_prefix[prefix]
            # the cc_compare workload: tightened database, heavier writes
            assert cell.params.workload.db_size == 1500
            assert cell.params.workload.write_fraction == 0.6

    def test_deadlock_resolution_series_carry_tay_references(self):
        result = run_sweep("deadlock_resolution", scale=TINY)
        sweeps = stationary_sweeps(result)
        assert len(sweeps) == 6
        for label, sweep in sweeps.items():
            assert sweep.model_reference_name == "TayModel", label
        # every cell reports the per-reason abort metrics and the label
        for cell in result.results:
            assert cell.model_reference == "TayModel"
            for key in ("aborts_deadlock", "aborts_wound", "aborts_die"):
                assert key in cell.metrics

    def test_displacement_policies_structure(self):
        from repro.core.displacement import DisplacementPolicy, VictimCriterion

        sweep = build_sweep("displacement_policies", scale=TINY)
        assert [cell.label for cell in sweep.cells] == \
            ["no displacement"] + [criterion.value for criterion in VictimCriterion]
        baseline, *policies = sweep.cells
        assert baseline.displacement is None
        for cell, criterion in zip(policies, VictimCriterion):
            assert cell.kind == KIND_TRACKING
            assert isinstance(cell.displacement, DisplacementPolicy)
            assert cell.displacement.criterion is criterion
            assert cell.displacement.hysteresis == 1.0

    def test_displacement_policies_cells_report_displaced_metric(self):
        result = run_sweep("displacement_policies", scale=TINY)
        for cell in result.results:
            if cell.label == "no displacement":
                assert "displaced" not in cell.metrics
            else:
                assert cell.metrics["displaced"] >= 0.0

    def test_mixed_classes_structure(self):
        sweep = build_sweep("mixed_classes", scale=TINY)
        assert len(sweep) == 3 * len(TINY.offered_loads)
        labels = {cell.label for cell in sweep.cells}
        assert labels == {"without control", "IS control", "PA control"}
        for cell in sweep.cells:
            assert cell.kind == KIND_STATIONARY
            oltp, query = cell.workload_classes
            assert oltp.accesses_per_txn < query.accesses_per_txn
            assert oltp.write_fraction > 0.0
            assert query.is_query

    def test_mixed_classes_runs_under_each_controller(self):
        result = run_sweep("mixed_classes", scale=TINY)
        assert len(result.results) == 3 * len(TINY.offered_loads)
        assert all(r.metrics["throughput"] > 0 for r in result.results)

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="fig12_stationary"):
            build_sweep("does_not_exist")

    def test_fig12_structure(self):
        sweep = build_sweep("fig12_stationary", scale=TINY)
        assert len(sweep) == 3 * len(TINY.offered_loads)
        assert all(cell.kind == KIND_STATIONARY for cell in sweep.cells)
        labels = {cell.label for cell in sweep.cells}
        assert labels == {"without control", "IS control", "PA control"}

    def test_tracking_scenarios_structure(self):
        fig13 = build_sweep("fig13_is_jump", scale=TINY)
        assert [cell.label for cell in fig13.cells] == ["IS"]
        fig14 = build_sweep("fig14_pa_jump", scale=TINY)
        assert [cell.label for cell in fig14.cells] == ["PA", "IS"]
        sinusoid = build_sweep("sinusoid", scale=TINY)
        assert {cell.label for cell in sinusoid.cells} == {"IS", "PA"}
        assert all(cell.kind == KIND_TRACKING
                   for cell in fig13.cells + fig14.cells + sinusoid.cells)

    def test_jump_time_follows_scale(self):
        sweep = build_sweep("fig13_is_jump", scale=TINY)
        _parameter, schedule = sweep.cells[0].scenario
        assert schedule.jump_time == TINY.tracking_horizon / 2.0
        assert schedule.before == 4
        assert schedule.after == 16

    def test_base_params_reach_every_cell(self):
        # a scenario varies only the load axis and its own workload
        # tightening on top of the base it is given
        base = default_system_params(seed=5)
        for name in available_scenarios():
            sweep = build_sweep(name, scale=TINY, base_params=base)
            assert len({cell.cell_id for cell in sweep.cells}) == len(sweep), name
            for cell in sweep.cells:
                assert replace(cell.params, n_terminals=base.n_terminals,
                               workload=base.workload) == base, cell.cell_id

    def test_scheme_comparisons_structure(self):
        isolation = build_sweep("isolation_tradeoff", scale=TINY)
        assert len(isolation) == 6 * len(TINY.offered_loads)
        assert {cell.label for cell in isolation.cells} == {
            f"{scheme} {suffix}" for scheme in ("2PL", "OCC", "SI")
            for suffix in ("without control", "IS control")}
        for cell in isolation.cells:
            assert cell.observers == ("aborts_by_reason", "isolation")
            assert cell.params.workload.db_size == 800
            assert cell.params.workload.write_fraction == 0.6
        # a single scheme with an empty label leaves the series unprefixed
        probes = build_sweep("probe_calibration", scale=TINY)
        assert {cell.label for cell in probes.cells} == {"without control", "IS control"}
        for cell in probes.cells:
            assert cell.cc.kind == "two_phase_locking"
            assert cell.observers[-1] == "aborts_by_reason"
            assert cell.params.workload.db_size == 1500

    def test_open_arrival_rate_follows_the_load_axis(self):
        from repro.tp.arrivals import OpenArrivals

        sweep = build_sweep("open_diurnal", scale=TINY)
        assert len(sweep) == 2 * len(TINY.offered_loads)
        for cell in sweep.cells:
            assert isinstance(cell.arrivals, OpenArrivals)
            assert cell.arrivals.rate.mean == 0.25 * cell.params.n_terminals
            assert cell.arrivals.rate.period == TINY.stationary_horizon / 2.0

    def test_stationary_sweep_spec_shares_one_arrival_process(self):
        from repro.tp.arrivals import OpenArrivals

        arrivals = OpenArrivals(5.0)
        spec = stationary_sweep_spec("open", TINY, default_system_params(),
                                     [("without control", None)], arrivals=arrivals)
        assert [cell.cell_id for cell in spec.cells] == \
            ["open/without control/N=10", "open/without control/N=30"]
        assert all(cell.arrivals is arrivals for cell in spec.cells)


class TestRunSweep:
    def test_registry_run_matches_sweep_offered_load(self):
        """A named scenario over 4 workers equals its grid built and run serially."""
        result = run_sweep("thrashing", scale=TINY, workers=4)
        (registry_sweep,) = stationary_sweeps(result).values()

        spec = stationary_sweep_spec("stationary", TINY, default_system_params(),
                                     [("without control", None)])
        (classic,) = stationary_sweeps(run_sweep(spec)).values()
        assert [p.offered_load for p in registry_sweep.points] == \
            [p.offered_load for p in classic.points]
        for ours, theirs in zip(registry_sweep.points, classic.points):
            assert ours.throughput == theirs.throughput
            assert ours.commits == theirs.commits
            assert ours.mean_response_time == theirs.mean_response_time
        assert registry_sweep.model_reference == classic.model_reference

    def test_replicated_run_reports_ci(self):
        result = run_sweep("thrashing", scale=TINY, replicates=5)
        assert result.replicates == 5
        for aggregate in result.aggregates:
            throughput = aggregate.metric("throughput")
            assert throughput.count == 5
            assert throughput.ci_half_width > 0.0
            assert "±" in throughput.format()
        (sweep,) = stationary_sweeps(result).values()
        assert isinstance(sweep, StationarySweep)
        assert set(sweep.aggregates) == {10, 30}

    def test_replicated_open_points_keep_the_slo_fields(self):
        """Replicate-mean points of open cells carry the SLO means, not the
        field defaults (regression: p95/p99 read 0.0 and tenant_metrics {})."""
        scale = replace(TINY, offered_loads=(25,))
        result = run_sweep("flash_crowd", scale=scale, replicates=2)
        for sweep in stationary_sweeps(result).values():
            (point,) = sweep.points
            mean = {name: summary.mean
                    for name, summary in sweep.aggregates[25].metrics.items()}
            assert mean["p95_response_time"] > 0.0
            assert point.p95_response_time == mean["p95_response_time"]
            assert point.p99_response_time == mean["p99_response_time"]
            assert point.shed == round(mean["shed"])
            tenants = {name: value for name, value in mean.items()
                       if name.startswith("tenant_")}
            assert len(tenants) == 8
            assert point.tenant_metrics == tenants

    def test_tracking_results_conversion(self):
        result = run_sweep("fig13_is_jump", scale=TINY)
        trajectories = tracking_results(result)
        assert list(trajectories) == ["IS"]
        assert trajectories["IS"].total_commits > 0

    def test_tracking_results_label_collision_keeps_every_cell(self):
        from repro.experiments.config import contention_bound_params
        from repro.experiments.dynamic import jump_scenario
        from repro.runner.specs import SweepSpec

        scenario = jump_scenario("accesses", 4, 8, jump_time=TINY.tracking_horizon / 2)
        params = contention_bound_params(seed=17)
        variants = [("IS", ControllerSpec.make("incremental_steps"))]
        first = tracking_sweep_spec("a", TINY, params, variants, scenario)
        second = tracking_sweep_spec("b", TINY, params, variants, scenario)
        merged = SweepSpec(name="merged", cells=first.cells + second.cells)
        trajectories = tracking_results(run_sweep(merged))
        # an ambiguous label keys every affected cell by its unique cell id
        assert set(trajectories) == {"a/IS", "b/IS"}

    def test_unknown_override_rejected(self):
        # a typoed or unsupported override must not silently run the
        # default experiment
        with pytest.raises(TypeError, match="jump_befor"):
            build_sweep("fig13_is_jump", scale=TINY, jump_befor=2)
        with pytest.raises(TypeError, match="jump_before"):
            build_sweep("thrashing", scale=TINY, jump_before=8)

    def test_spec_with_scenario_kwargs_rejected(self):
        spec = build_sweep("thrashing", scale=TINY)
        with pytest.raises(TypeError, match="named scenarios"):
            run_sweep(spec, scale=TINY)

    def test_sweep_offered_load_controller_spec_parallel(self):
        spec = stationary_sweep_spec("stationary", TINY, default_system_params(),
                                     [("PA", ControllerSpec.make("parabola"))])
        (sweep,) = stationary_sweeps(run_sweep(spec, workers=2)).values()
        assert [point.offered_load for point in sweep.points] == [10, 30]
        (serial,) = stationary_sweeps(run_sweep(spec, workers=0)).values()
        assert [p.throughput for p in sweep.points] == \
            [p.throughput for p in serial.points]
