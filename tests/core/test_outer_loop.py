"""Tests for the outer-loop measurement-interval tuner."""

import pytest

from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.types import IntervalMeasurement


def measurement(throughput, time=1.0):
    return IntervalMeasurement(
        time=time,
        interval_length=1.0,
        throughput=throughput,
        mean_concurrency=10.0,
        concurrency_at_sample=10.0,
        current_limit=20.0,
        commits=int(throughput),
    )


class TestValidation:
    def test_target_departures_positive(self):
        with pytest.raises(ValueError):
            MeasurementIntervalTuner(target_departures=0)

    def test_interval_band_sane(self):
        with pytest.raises(ValueError):
            MeasurementIntervalTuner(min_interval=0.0)
        with pytest.raises(ValueError):
            MeasurementIntervalTuner(min_interval=5.0, max_interval=1.0)

    def test_smoothing_range(self):
        with pytest.raises(ValueError):
            MeasurementIntervalTuner(smoothing=0.0)
        with pytest.raises(ValueError):
            MeasurementIntervalTuner(smoothing=1.5)


class TestIntervalAdaptation:
    def test_targets_departure_count(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=1.0,
                                         min_interval=0.1, max_interval=100.0)
        interval = tuner.next_interval(5.0, measurement(throughput=50.0))
        assert interval == pytest.approx(2.0)

    def test_interval_clamped_to_band(self):
        tuner = MeasurementIntervalTuner(target_departures=1000, smoothing=1.0,
                                         min_interval=0.5, max_interval=10.0)
        assert tuner.next_interval(5.0, measurement(throughput=1.0)) == 10.0
        fast = MeasurementIntervalTuner(target_departures=1, smoothing=1.0,
                                        min_interval=0.5, max_interval=10.0)
        assert fast.next_interval(5.0, measurement(throughput=1000.0)) == 0.5

    def test_zero_throughput_lengthens_cautiously(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=1.0,
                                         min_interval=0.5, max_interval=60.0)
        assert tuner.next_interval(4.0, measurement(throughput=0.0)) == pytest.approx(8.0)

    def test_smoothing_blends_old_and_new(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=0.5,
                                         min_interval=0.1, max_interval=100.0)
        interval = tuner.next_interval(4.0, measurement(throughput=50.0))
        # proposal is 2.0, smoothed halfway from 4.0 -> 3.0
        assert interval == pytest.approx(3.0)

    def test_derived_target_uses_paper_default_initially(self):
        tuner = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                         min_interval=0.1, max_interval=1000.0)
        interval = tuner.next_interval(1.0, measurement(throughput=10.0))
        # with no variability estimate yet, the target is 100 departures
        assert interval == pytest.approx(10.0)

    def test_derived_target_adapts_to_variability(self):
        steady = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                          min_interval=0.01, max_interval=1000.0)
        noisy = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                         min_interval=0.01, max_interval=1000.0)
        for index in range(10):
            steady.next_interval(1.0, measurement(throughput=50.0, time=float(index)))
            noisy_value = 50.0 if index % 2 == 0 else 10.0
            noisy.next_interval(1.0, measurement(throughput=noisy_value, time=float(index)))
        steady_interval = steady.next_interval(1.0, measurement(throughput=50.0))
        noisy_interval = noisy.next_interval(1.0, measurement(throughput=30.0))
        # a noisier departure process needs a longer interval for the same accuracy
        assert noisy_interval > steady_interval

    def test_adjustment_counter(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=1.0,
                                         min_interval=0.1, max_interval=100.0)
        tuner.next_interval(5.0, measurement(throughput=50.0))
        tuner.next_interval(5.0, measurement(throughput=50.0))
        assert tuner.adjustments >= 1


class TestConfigurationEquality:
    def test_compares_by_configuration_not_run_state(self):
        fresh = MeasurementIntervalTuner(target_departures=100, max_interval=10.0)
        used = MeasurementIntervalTuner(target_departures=100, max_interval=10.0)
        for _ in range(5):
            used.next_interval(5.0, measurement(throughput=40.0))
        assert used.adjustments > 0
        assert used == fresh
        assert hash(used) == hash(fresh)

    def test_any_option_tells_tuners_apart(self):
        base = MeasurementIntervalTuner()
        for options in ({"target_departures": 100}, {"relative_accuracy": 0.2},
                        {"confidence": 0.9}, {"min_interval": 1.0},
                        {"max_interval": 30.0}, {"smoothing": 0.25}):
            assert MeasurementIntervalTuner(**options) != base, options
