"""Tests for the stationary experiment harness (Figures 1 and 12)."""

import pytest

from repro.core.static import FixedLimit
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.stationary import StationarySweep, run_stationary_point
from repro.runner import run_sweep, stationary_sweep_spec, stationary_sweeps
from repro.runner.specs import ControllerSpec
from repro.tp.arrivals import OpenArrivals
from repro.tp.params import WorkloadParams
from repro.tp.workload import TransactionClassSpec


def tiny_params(n_terminals=40):
    base = default_system_params(seed=3)
    return base.with_changes(
        n_terminals=n_terminals,
        n_cpus=2,
        workload=WorkloadParams(db_size=400, accesses_per_txn=4,
                                query_fraction=0.25, write_fraction=0.5),
    )


def tiny_scale():
    return ExperimentScale(
        stationary_horizon=4.0,
        warmup=1.0,
        offered_loads=(10, 40, 120),
        tracking_horizon=20.0,
        measurement_interval=1.0,
        synthetic_steps=50,
    )


class TestRunStationaryPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_stationary_point(tiny_params(), horizon=0.0)
        with pytest.raises(ValueError):
            run_stationary_point(tiny_params(), warmup=-1.0)

    @pytest.mark.parametrize("arrivals", [None, OpenArrivals(20.0)], ids=["closed", "open"])
    def test_tenant_quotas_need_an_arrival_model(self, arrivals):
        """Regression: a direct closed run ignored its classes' quotas."""
        classes = (
            TransactionClassSpec(name="steady", weight=1.0, accesses_per_txn=4,
                                 write_fraction=0.5),
            TransactionClassSpec(name="burst", weight=1.0, accesses_per_txn=4,
                                 write_fraction=0.5, admission_quota=1, queue_quota=0),
        )
        if arrivals is None:
            with pytest.raises(ValueError, match="arrival model"):
                run_stationary_point(tiny_params(), horizon=2.0, warmup=0.5,
                                     workload_classes=classes, arrivals=arrivals)
        else:
            point = run_stationary_point(tiny_params(), horizon=2.0, warmup=0.5,
                                         workload_classes=classes, arrivals=arrivals)
            assert point.shed > 0  # the burst tenant's queue quota of 0 sheds

    def test_uncontrolled_point_has_data(self):
        point = run_stationary_point(tiny_params(), horizon=4.0, warmup=1.0)
        assert point.offered_load == 40
        assert point.throughput > 0
        assert point.commits > 0
        assert point.mean_response_time > 0
        assert point.final_limit == float("inf")

    def test_controlled_point_reports_finite_limit(self):
        point = run_stationary_point(
            tiny_params(), controller=FixedLimit(5, upper_bound=50),
            horizon=4.0, warmup=1.0)
        assert point.final_limit == 5
        assert point.mean_concurrency <= 5.5

    def test_as_tuple(self):
        point = run_stationary_point(tiny_params(), horizon=2.0, warmup=0.5)
        load, throughput = point.as_tuple()
        assert load == 40.0
        assert throughput == point.throughput


def run_curve(controller=None, label="without control"):
    spec = stationary_sweep_spec("stationary", tiny_scale(), tiny_params(), [(label, controller)])
    (sweep,) = stationary_sweeps(run_sweep(spec)).values()
    return sweep


class TestSweep:
    def test_sweep_covers_all_offered_loads(self):
        sweep = run_curve()
        assert [point.offered_load for point in sweep.points] == [10, 40, 120]
        assert set(sweep.model_reference) == {10, 40, 120}

    def test_sweep_labels(self):
        uncontrolled = run_curve()
        controlled = run_curve(ControllerSpec.make("parabola", initial_limit=5), "with control")
        assert uncontrolled.label == "without control"
        assert controlled.label == "with control"

    def test_curve_sorted_by_load(self):
        sweep = run_curve()
        curve = sweep.curve()
        assert [load for load, _ in curve] == sorted(load for load, _ in curve)

    def test_peak_and_throughput_at(self):
        sweep = run_curve()
        peak = sweep.peak()
        assert peak.throughput == max(point.throughput for point in sweep.points)
        assert sweep.throughput_at(40) == next(
            point.throughput for point in sweep.points if point.offered_load == 40)
        with pytest.raises(KeyError):
            sweep.throughput_at(999)

    def test_empty_sweep_peak_raises(self):
        with pytest.raises(ValueError):
            StationarySweep(label="empty").peak()

    def test_uncontrolled_heavy_load_thrashes(self):
        """The core phenomenon: more offered load, less throughput."""
        sweep = run_curve()
        moderate = sweep.throughput_at(40)
        heavy = sweep.throughput_at(120)
        assert heavy < moderate
