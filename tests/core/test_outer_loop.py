"""Tests for the outer-loop measurement-interval tuner."""

import pickle

import pytest

from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.types import IntervalMeasurement
from repro.sim.stats import ObservationStats


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


def propose(tuner, current, throughput, history=None, time=1.0):
    """One outer-loop step as the measurement process takes it: record the
    interval's throughput in the run's history, then ask the tuner."""
    history = ObservationStats() if history is None else history
    sample = measurement(throughput, time)
    history.add(sample.throughput)
    return tuner.next_interval(current, sample, history)


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
        interval = propose(tuner, 5.0, 50.0)
        assert interval == pytest.approx(2.0)

    def test_interval_clamped_to_band(self):
        tuner = MeasurementIntervalTuner(target_departures=1000, smoothing=1.0,
                                         min_interval=0.5, max_interval=10.0)
        assert propose(tuner, 5.0, 1.0) == 10.0
        fast = MeasurementIntervalTuner(target_departures=1, smoothing=1.0,
                                        min_interval=0.5, max_interval=10.0)
        assert propose(fast, 5.0, 1000.0) == 0.5

    def test_zero_throughput_lengthens_cautiously(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=1.0,
                                         min_interval=0.5, max_interval=60.0)
        assert propose(tuner, 4.0, 0.0) == pytest.approx(8.0)

    def test_smoothing_blends_old_and_new(self):
        tuner = MeasurementIntervalTuner(target_departures=100, smoothing=0.5,
                                         min_interval=0.1, max_interval=100.0)
        interval = propose(tuner, 4.0, 50.0)
        # proposal is 2.0, smoothed halfway from 4.0 -> 3.0
        assert interval == pytest.approx(3.0)

    def test_derived_target_uses_paper_default_initially(self):
        tuner = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                         min_interval=0.1, max_interval=1000.0)
        interval = propose(tuner, 1.0, 10.0)
        # with no variability estimate yet, the target is 100 departures
        assert interval == pytest.approx(10.0)

    def test_derived_target_adapts_to_variability(self):
        steady = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                          min_interval=0.01, max_interval=1000.0)
        noisy = MeasurementIntervalTuner(target_departures=None, smoothing=1.0,
                                         min_interval=0.01, max_interval=1000.0)
        steady_history, noisy_history = ObservationStats(), ObservationStats()
        for index in range(10):
            propose(steady, 1.0, 50.0, steady_history, time=float(index))
            noisy_value = 50.0 if index % 2 == 0 else 10.0
            propose(noisy, 1.0, noisy_value, noisy_history, time=float(index))
        steady_interval = propose(steady, 1.0, 50.0, steady_history)
        noisy_interval = propose(noisy, 1.0, 30.0, noisy_history)
        # a noisier departure process needs a longer interval for the same accuracy
        assert noisy_interval > steady_interval


class TestConfigurationEquality:
    def test_compares_by_configuration_not_run_state(self):
        """The run's throughput history lives outside the tuner, so tuning
        leaves it equal to, hashing and pickling like, a fresh one."""
        fresh = MeasurementIntervalTuner(target_departures=None, max_interval=10.0)
        used = MeasurementIntervalTuner(target_departures=None, max_interval=10.0)
        before = pickle.dumps(used)
        history = ObservationStats()
        intervals = [5.0]
        for throughput in (40.0, 10.0, 40.0, 10.0, 40.0):
            intervals.append(propose(used, intervals[-1], throughput, history))
        assert len(set(intervals)) > 1
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert pickle.dumps(used) == before

    def test_any_option_tells_tuners_apart(self):
        base = MeasurementIntervalTuner()
        for options in ({"target_departures": 100}, {"relative_accuracy": 0.2},
                        {"confidence": 0.9}, {"min_interval": 1.0},
                        {"max_interval": 30.0}, {"smoothing": 0.25}):
            assert MeasurementIntervalTuner(**options) != base, options
