"""Tests for the fixed-point model of the optimistic CC system."""

import pytest

from repro.analytic.occ import OccModel
from repro.experiments.config import contention_bound_params, default_system_params


@pytest.fixture
def params():
    return default_system_params()


class TestOperatingPoint:
    def test_zero_mpl_means_zero_throughput(self, params):
        model = OccModel(params)
        point = model.evaluate(0.0)
        assert point.throughput == 0.0
        assert point.abort_probability == 0.0

    def test_light_load_has_negligible_aborts(self, params):
        model = OccModel(params)
        point = model.evaluate(1.0)
        assert point.abort_probability < 0.05
        assert point.throughput > 0

    def test_heavy_load_has_high_abort_probability(self, params):
        model = OccModel(params)
        light = model.evaluate(5.0)
        heavy = model.evaluate(400.0)
        assert heavy.abort_probability > light.abort_probability
        assert heavy.abort_probability > 0.3

    def test_throughput_bounded_by_cpu_capacity(self, params):
        model = OccModel(params)
        for mpl in (1, 10, 50, 200, 800):
            assert model.throughput(mpl) <= params.max_cpu_throughput + 1e-9

    def test_read_only_workload_never_aborts(self, params):
        read_only = params.with_changes(
            workload=params.workload.with_changes(query_fraction=1.0, write_fraction=0.0))
        model = OccModel(read_only)
        assert model.evaluate(500.0).abort_probability == 0.0

    def test_residence_time_grows_with_mpl(self, params):
        model = OccModel(params)
        assert model.evaluate(200.0).residence_time > model.evaluate(10.0).residence_time


class TestCurveShape:
    def test_curve_rises_then_falls(self, params):
        model = OccModel(params)
        levels = [2, 5, 10, 20, 50, 100, 200, 400, 800]
        curve = model.throughput_curve(levels)
        peak_index = curve.index(max(curve))
        assert 0 < peak_index < len(curve) - 1
        # thrashing: the end of the curve is clearly below the peak
        assert curve[-1] < 0.8 * max(curve)

    def test_optimal_mpl_is_interior(self, params):
        model = OccModel(params)
        optimum = model.optimal_mpl(lower=1.0, upper=800.0)
        assert 2.0 < optimum < 400.0
        # the optimum really is (near) the argmax of the modelled curve
        best = model.throughput(optimum)
        for other in (optimum * 0.25, optimum * 4.0):
            assert best >= model.throughput(other) - 1e-6

    def test_optimal_point_consistent(self, params):
        model = OccModel(params)
        point = model.optimal_point()
        assert point.throughput == pytest.approx(model.throughput(point.mpl), rel=1e-6)

    def test_larger_transactions_lower_peak_throughput(self):
        base = default_system_params()
        small = OccModel(base.with_changes(
            workload=base.workload.with_changes(accesses_per_txn=4)))
        large = OccModel(base.with_changes(
            workload=base.workload.with_changes(accesses_per_txn=16)))
        assert small.optimal_point().throughput > large.optimal_point().throughput

    def test_optimum_position_moves_in_contention_bound_config(self):
        base = contention_bound_params()
        small_k = OccModel(base.with_changes(
            workload=base.workload.with_changes(accesses_per_txn=4)))
        large_k = OccModel(base.with_changes(
            workload=base.workload.with_changes(accesses_per_txn=16)))
        optimum_small = small_k.optimal_mpl()
        optimum_large = large_k.optimal_mpl()
        # the paper's dynamic experiments rely on the optimum position moving
        # substantially when k changes
        assert optimum_large > 1.5 * optimum_small

    def test_more_writes_mean_more_aborts(self, params):
        few_writes = OccModel(params.with_changes(
            workload=params.workload.with_changes(write_fraction=0.1)))
        many_writes = OccModel(params.with_changes(
            workload=params.workload.with_changes(write_fraction=0.9)))
        assert many_writes.evaluate(100.0).abort_probability > \
            few_writes.evaluate(100.0).abort_probability

    def test_wasted_cpu_fraction_tracks_abort_probability(self, params):
        model = OccModel(params)
        point = model.evaluate(300.0)
        assert point.wasted_cpu_fraction == pytest.approx(point.abort_probability)
