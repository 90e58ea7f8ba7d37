"""Tests for the statistics utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    ObservationStats,
    P2Quantile,
    TimeWeightedStats,
    required_observations,
)


class TestObservationStats:
    def test_empty_stats_are_zero(self):
        stats = ObservationStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_single_observation(self):
        stats = ObservationStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.minimum == 5.0
        assert stats.maximum == 5.0

    def test_mean_and_variance_match_numpy(self):
        values = [3.1, -2.0, 7.5, 0.0, 11.2, 4.4]
        stats = ObservationStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values, ddof=1))
        assert stats.total == pytest.approx(sum(values))

    def test_merge_equivalent_to_combined(self):
        left_values = [1.0, 2.0, 3.0]
        right_values = [10.0, 20.0, 30.0, 40.0]
        left = ObservationStats()
        right = ObservationStats()
        for value in left_values:
            left.add(value)
        for value in right_values:
            right.add(value)
        left.merge(right)
        combined = left_values + right_values
        assert left.count == len(combined)
        assert left.mean == pytest.approx(np.mean(combined))
        assert left.variance == pytest.approx(np.var(combined, ddof=1))

    def test_merge_into_empty(self):
        left = ObservationStats()
        right = ObservationStats()
        right.add(4.0)
        right.add(6.0)
        left.merge(right)
        assert left.mean == pytest.approx(5.0)

    def test_merge_empty_is_noop(self):
        left = ObservationStats()
        left.add(1.0)
        left.merge(ObservationStats())
        assert left.count == 1

    def test_reset(self):
        stats = ObservationStats()
        stats.add(1.0)
        stats.reset()
        assert stats.count == 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_welford_matches_numpy_property(self, values):
        stats = ObservationStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-6)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)


class TestTimeWeightedStats:
    def test_constant_value(self):
        stats = TimeWeightedStats(0.0, 3.0)
        assert stats.mean(10.0) == pytest.approx(3.0)

    def test_step_function_average(self):
        stats = TimeWeightedStats(0.0, 0.0)
        stats.update(4.0, 10.0)   # value 0 for 4s, then 10
        assert stats.mean(8.0) == pytest.approx(5.0)

    def test_multiple_steps(self):
        stats = TimeWeightedStats(0.0, 1.0)
        stats.update(2.0, 3.0)
        stats.update(5.0, 0.0)
        # 1*2 + 3*3 + 0*5 over 10 seconds
        assert stats.mean(10.0) == pytest.approx(1.1)

    def test_non_monotone_time_raises(self):
        stats = TimeWeightedStats(5.0, 1.0)
        with pytest.raises(ValueError):
            stats.update(4.0, 2.0)

    def test_mean_before_last_update_raises(self):
        stats = TimeWeightedStats(0.0, 1.0)
        stats.update(5.0, 2.0)
        with pytest.raises(ValueError):
            stats.mean(4.0)

    def test_min_max_tracking(self):
        stats = TimeWeightedStats(0.0, 5.0)
        stats.update(1.0, 2.0)
        stats.update(2.0, 9.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_reset_restarts_window(self):
        stats = TimeWeightedStats(0.0, 10.0)
        stats.update(5.0, 0.0)
        stats.reset(5.0)
        assert stats.mean(10.0) == pytest.approx(0.0)
        assert stats.current == 0.0

    def test_zero_horizon_returns_current(self):
        stats = TimeWeightedStats(2.0, 7.0)
        assert stats.mean(2.0) == 7.0

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10.0),
                              st.floats(min_value=-100, max_value=100)),
                    min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_time_weighted_mean_within_bounds_property(self, steps):
        stats = TimeWeightedStats(0.0, 0.0)
        now = 0.0
        values = [0.0]
        for delta, value in steps:
            now += delta
            stats.update(now, value)
            values.append(value)
        end = now + 1.0
        mean = stats.mean(end)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


class TestP2Quantile:
    def test_probability_must_be_in_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(bad)

    def test_empty_estimate_is_zero(self):
        assert P2Quantile(0.95).value == 0.0
        assert P2Quantile(0.95).count == 0

    def test_small_samples_are_exact(self):
        # below five observations the markers are the raw sorted sample, so
        # the estimate is the exact interpolated sample quantile
        estimator = P2Quantile(0.5)
        for value in (9.0, 1.0, 5.0):
            estimator.add(value)
        assert estimator.value == pytest.approx(5.0)
        estimator.add(7.0)
        assert estimator.value == pytest.approx(6.0)  # median of 1,5,7,9

    def test_converges_on_uniform_sample(self):
        rng = np.random.default_rng(7)
        estimator = P2Quantile(0.95)
        values = rng.uniform(0.0, 100.0, size=20_000)
        for value in values:
            estimator.add(float(value))
        exact = float(np.quantile(values, 0.95))
        assert estimator.value == pytest.approx(exact, rel=0.02)

    def test_converges_on_heavy_tailed_sample(self):
        rng = np.random.default_rng(11)
        estimator = P2Quantile(0.99)
        values = rng.pareto(2.0, size=50_000)
        for value in values:
            estimator.add(float(value))
        exact = float(np.quantile(values, 0.99))
        assert estimator.value == pytest.approx(exact, rel=0.05)

    def test_deterministic_replay(self):
        # the estimate is a pure function of the observation sequence —
        # the property the cross-executor golden assertions rely on
        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.exponential(2.0, size=500)]
        first = P2Quantile(0.95)
        second = P2Quantile(0.95)
        for value in values:
            first.add(value)
        for value in values:
            second.add(value)
        assert first.value == second.value

    def test_reset_forgets_observations(self):
        estimator = P2Quantile(0.9)
        for value in range(100):
            estimator.add(float(value))
        estimator.reset()
        assert estimator.count == 0
        assert estimator.value == 0.0
        assert estimator.probability == 0.9

    def test_constant_stream(self):
        estimator = P2Quantile(0.99)
        for _ in range(50):
            estimator.add(4.2)
        assert estimator.value == pytest.approx(4.2)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_estimate_stays_within_observed_range(self, values):
        estimator = P2Quantile(0.95)
        for value in values:
            estimator.add(value)
        assert min(values) - 1e-9 <= estimator.value <= max(values) + 1e-9


class TestRequiredObservations:
    def test_hundreds_of_departures_guideline(self):
        # the paper's guidance: coefficient of variation around one and a
        # 10% accuracy target need a few hundred departures
        needed = required_observations(1.0, 0.1, 0.95)
        assert 300 <= needed <= 500

    def test_tighter_accuracy_needs_more(self):
        assert required_observations(1.0, 0.05) > required_observations(1.0, 0.1)

    def test_lower_variability_needs_fewer(self):
        assert required_observations(0.3, 0.1) < required_observations(1.0, 0.1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            required_observations(-1.0, 0.1)
        with pytest.raises(ValueError):
            required_observations(1.0, 0.0)
        with pytest.raises(ValueError):
            required_observations(1.0, 0.1, confidence=2.0)

    def test_at_least_one(self):
        assert required_observations(0.0, 0.5) >= 1
