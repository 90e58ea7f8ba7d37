"""Behavioural assertions on the open-system scenarios.

The golden harness pins the *exact* trajectories of ``open_diurnal`` and
``flash_crowd``; these tests state why those trajectories are the right
ones — the flash crowd is absorbed by shedding the bursting tenant while
the steady tenant keeps its SLO, and the diurnal open sweep surfaces the
backlog/tail-percentile signature of sustained overload.
"""

import pytest

from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.stationary import run_stationary_point
from repro.runner.api import run_sweep
from repro.runner.registry import build_sweep, stationary_sweep_spec
from repro.tp.arrivals import OpenArrivals
from repro.tp.workload import TransactionClassSpec


@pytest.fixture(scope="module")
def flash_crowd_cells():
    result = run_sweep(build_sweep("flash_crowd", scale=ExperimentScale.smoke()),
                       workers=1)
    return result.results


@pytest.fixture(scope="module")
def open_diurnal_cells():
    result = run_sweep(build_sweep("open_diurnal", scale=ExperimentScale.smoke()),
                       workers=1)
    return result.results


class TestFlashCrowdSLO:
    def test_only_the_bursting_tenant_is_shed(self, flash_crowd_cells):
        assert any(cell.metrics["tenant_shed_burst"] > 0
                   for cell in flash_crowd_cells)
        for cell in flash_crowd_cells:
            assert cell.metrics["tenant_shed_steady"] == 0.0, cell.cell_id
            assert cell.metrics["shed"] == cell.metrics["tenant_shed_burst"]

    def test_steady_tenant_keeps_its_slo_through_the_crowd(self, flash_crowd_cells):
        """In every overloaded cell the quota machinery holds the steady
        tenant's tail below the bursting tenant's."""
        overloaded = [cell for cell in flash_crowd_cells
                      if cell.metrics["shed"] > 0]
        assert overloaded, "the flash crowd never overloaded the gate"
        for cell in overloaded:
            steady = cell.metrics["tenant_p95_response_time_steady"]
            burst = cell.metrics["tenant_p95_response_time_burst"]
            assert 0.0 < steady < burst, cell.cell_id
            assert steady < 1.0, f"{cell.cell_id}: steady p95 {steady} blew the SLO"

    def test_both_tenants_commit_in_every_cell(self, flash_crowd_cells):
        for cell in flash_crowd_cells:
            assert cell.metrics["tenant_commits_steady"] > 0
            assert cell.metrics["tenant_commits_burst"] > 0

    def test_tenant_metric_schema_is_stable(self, flash_crowd_cells):
        expected = {f"tenant_{metric}_{tenant}"
                    for tenant in ("steady", "burst")
                    for metric in ("commits", "shed", "p95_response_time",
                                   "p99_response_time")}
        for cell in flash_crowd_cells:
            assert expected <= set(cell.metrics), cell.cell_id


class TestOpenDiurnal:
    def test_percentiles_are_ordered_and_positive(self, open_diurnal_cells):
        for cell in open_diurnal_cells:
            assert 0.0 < cell.metrics["p95_response_time"] <= cell.metrics["p99_response_time"]

    def test_backlog_probe_reports_and_grows_with_offered_load(self, open_diurnal_cells):
        by_label = {}
        for cell in open_diurnal_cells:
            assert cell.metrics["probe_arrival_backlog_max"] >= cell.metrics[
                "probe_arrival_backlog_mean"] >= 0.0
            by_label.setdefault(cell.label, []).append(
                cell.metrics["probe_arrival_backlog_mean"])
        for label, backlogs in by_label.items():
            assert backlogs == sorted(backlogs), (
                f"{label}: backlog should grow along the offered-load axis")
            assert backlogs[-1] > 10 * backlogs[0], (
                f"{label}: the top of the grid should be in sustained overload")

    def test_nothing_is_shed_without_queue_quotas(self, open_diurnal_cells):
        for cell in open_diurnal_cells:
            assert cell.metrics["shed"] == 0.0


class TestSweepArrivalThreading:
    def test_callable_arrivals_scale_with_the_offered_load(self):
        sweep = stationary_sweep_spec(
            "open-test", ExperimentScale.smoke(), default_system_params(), [("open", None)],
            arrivals=lambda load: OpenArrivals(0.25 * load))
        loads = [cell.params.n_terminals for cell in sweep.cells]
        rates = [cell.arrivals.rate(0.0) for cell in sweep.cells]
        assert rates == [0.25 * load for load in loads]

    def test_shared_arrival_process_is_reused_verbatim(self):
        arrivals = OpenArrivals(12.0)
        sweep = stationary_sweep_spec(
            "open-test", ExperimentScale.smoke(), default_system_params(), [("open", None)],
            arrivals=arrivals)
        assert all(cell.arrivals == arrivals for cell in sweep.cells)

    def test_closed_sweeps_carry_no_arrivals(self):
        sweep = stationary_sweep_spec("closed-test", ExperimentScale.smoke(),
                                      default_system_params(), [("closed", None)])
        assert all(cell.arrivals is None for cell in sweep.cells)


class TestTenantMetricSchema:
    def test_keys_enumerate_the_spec_classes_even_without_traffic(self):
        """A tenant that never commits still gets its metric keys (schema
        is a pure function of the spec, so replicate aggregation and the
        goldens never see a varying key set)."""
        classes = (
            TransactionClassSpec(name="busy", weight=1.0, accesses_per_txn=4),
            TransactionClassSpec(name="rare", weight=1e-9, accesses_per_txn=4),
        )
        point = run_stationary_point(
            default_system_params(seed=5),
            horizon=2.0, warmup=0.5,
            workload_classes=classes,
            arrivals=OpenArrivals(5.0),
        )
        for name in ("busy", "rare"):
            for metric in ("commits", "shed", "p95_response_time",
                           "p99_response_time"):
                assert f"tenant_{metric}_{name}" in point.tenant_metrics
        assert point.tenant_metrics["tenant_commits_rare"] == 0.0
        assert point.tenant_metrics["tenant_p95_response_time_rare"] == 0.0
