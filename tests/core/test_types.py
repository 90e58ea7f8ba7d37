"""Tests for measurement and trace data types."""

import pytest

from repro.core.types import ControlTrace, IntervalMeasurement


def make_measurement(**overrides):
    defaults = dict(
        time=10.0,
        interval_length=5.0,
        throughput=40.0,
        mean_concurrency=20.0,
        concurrency_at_sample=22.0,
        current_limit=25.0,
        commits=200,
        aborts=20,
        conflicts=30,
        mean_response_time=0.5,
    )
    defaults.update(overrides)
    return IntervalMeasurement(**defaults)


class TestIntervalMeasurement:
    def test_interval_length_must_be_positive(self):
        with pytest.raises(ValueError):
            make_measurement(interval_length=0.0)

    def test_throughput_must_be_non_negative(self):
        with pytest.raises(ValueError):
            make_measurement(throughput=-1.0)

    def test_conflicts_per_commit(self):
        measurement = make_measurement(commits=10, conflicts=5)
        assert measurement.conflicts_per_commit == pytest.approx(0.5)

    def test_conflicts_per_commit_no_commits(self):
        measurement = make_measurement(commits=0, conflicts=5)
        assert measurement.conflicts_per_commit == 0.0

    def test_effective_utilisation_proxy(self):
        measurement = make_measurement(commits=80, aborts=20)
        assert measurement.effective_utilisation_proxy == pytest.approx(0.8)

    def test_effective_utilisation_proxy_empty(self):
        measurement = make_measurement(commits=0, aborts=0)
        assert measurement.effective_utilisation_proxy == 0.0

    def test_frozen(self):
        measurement = make_measurement()
        with pytest.raises(AttributeError):
            measurement.throughput = 1.0


class TestControlTrace:
    def test_append_and_length(self):
        trace = ControlTrace()
        trace.append(make_measurement(time=1.0), new_limit=30.0)
        trace.append(make_measurement(time=2.0), new_limit=35.0)
        assert len(trace) == 2
        assert trace.limits == [30.0, 35.0]
        assert trace.times == [1.0, 2.0]

    def test_mean_throughput(self):
        trace = ControlTrace()
        trace.append(make_measurement(throughput=10.0), 1.0)
        trace.append(make_measurement(throughput=30.0), 1.0)
        assert trace.mean_throughput() == pytest.approx(20.0)

    def test_mean_throughput_empty(self):
        assert ControlTrace().mean_throughput() == 0.0

    def test_limit_series(self):
        trace = ControlTrace()
        trace.append(make_measurement(time=5.0), 12.0)
        assert trace.limit_series() == ((5.0, 12.0),)
