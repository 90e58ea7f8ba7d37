"""Tests for the controller base class and the static/rule-based baselines."""

import math

import pytest

from repro.core.controller import LoadController
from repro.core.rules import IyerRule, TayRule
from repro.core.static import FixedLimit, NoControl
from repro.core.types import IntervalMeasurement


def measurement(throughput=50.0, concurrency=20.0, limit=25.0, commits=100,
                conflicts=0, aborts=0, time=1.0, mean_accesses=None):
    return IntervalMeasurement(
        time=time,
        interval_length=1.0,
        throughput=throughput,
        mean_concurrency=concurrency,
        concurrency_at_sample=concurrency,
        current_limit=limit,
        commits=commits,
        aborts=aborts,
        conflicts=conflicts,
        mean_accesses_per_txn=mean_accesses,
    )


class _EchoController(LoadController):
    """Minimal concrete controller used to test the base class."""

    name = "echo"

    def __init__(self, propose, **kwargs):
        super().__init__(**kwargs)
        self._propose_value = propose

    def _propose(self, _measurement):
        return self._propose_value


class TestLoadControllerBase:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            _EchoController(10, initial_limit=5, lower_bound=0.5)
        with pytest.raises(ValueError):
            _EchoController(10, initial_limit=5, lower_bound=10, upper_bound=5)

    def test_initial_limit_clamped(self):
        controller = _EchoController(10, initial_limit=500, lower_bound=1, upper_bound=100)
        assert controller.current_limit == 100

    def test_update_clamps_to_bounds(self):
        controller = _EchoController(1e9, initial_limit=10, lower_bound=2, upper_bound=50)
        assert controller.update(measurement()) == 50
        controller._propose_value = -5
        assert controller.update(measurement()) == 2

    def test_nan_proposal_falls_to_lower_bound(self):
        controller = _EchoController(float("nan"), initial_limit=10, lower_bound=3, upper_bound=50)
        assert controller.update(measurement()) == 3


class TestNoControl:
    def test_limit_is_effectively_infinite(self):
        controller = NoControl()
        assert math.isinf(controller.current_limit)
        assert math.isinf(controller.update(measurement()))

    def test_finite_upper_bound_respected(self):
        controller = NoControl(upper_bound=500)
        assert controller.update(measurement()) == 500

    def test_name(self):
        assert NoControl().name == "no-control"


class TestFixedLimit:
    def test_limit_never_changes(self):
        controller = FixedLimit(42)
        for throughput in (10.0, 100.0, 0.0):
            assert controller.update(measurement(throughput=throughput)) == 42

    def test_limit_clamped_into_bounds(self):
        controller = FixedLimit(500, upper_bound=100)
        assert controller.update(measurement()) == 100


class TestTayRule:
    def test_threshold_formula(self):
        controller = TayRule(db_size=9000, accesses_per_txn=10, margin=1.5,
                             track_measured_k=False)
        # n* = 1.5 * D / k^2 = 1.5 * 9000 / 100 = 135
        assert controller.update(measurement()) == pytest.approx(135.0)

    def test_tracks_measured_transaction_size(self):
        controller = TayRule(db_size=8000, accesses_per_txn=10, track_measured_k=True)
        small_k = controller.update(measurement(mean_accesses=5.0))
        large_k = controller.update(measurement(mean_accesses=20.0))
        assert small_k == pytest.approx(1.5 * 8000 / 25)
        assert large_k == pytest.approx(1.5 * 8000 / 400)
        assert small_k > large_k

    def test_static_when_not_tracking(self):
        controller = TayRule(db_size=8000, accesses_per_txn=10, track_measured_k=False)
        assert controller.update(measurement(mean_accesses=20.0)) == pytest.approx(120.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TayRule(db_size=0, accesses_per_txn=5)
        with pytest.raises(ValueError):
            TayRule(db_size=100, accesses_per_txn=0)
        with pytest.raises(ValueError):
            TayRule(db_size=100, accesses_per_txn=5, margin=0.0)

    def test_lower_bound_enforced(self):
        controller = TayRule(db_size=100, accesses_per_txn=50, lower_bound=1.0)
        # the formula would give 1.5 * 100 / 2500 = 0.06; clamped to 1
        assert controller.update(measurement()) == 1.0


class TestIyerRule:
    def test_raises_limit_when_conflicts_low(self):
        controller = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=10)
        new_limit = controller.update(measurement(commits=100, conflicts=10))
        assert new_limit == pytest.approx(12.0)

    def test_lowers_limit_when_conflicts_high(self):
        controller = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=10)
        new_limit = controller.update(measurement(commits=100, conflicts=200))
        assert new_limit < 10.0

    def test_holds_inside_deadband(self):
        controller = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=10, deadband=0.2)
        new_limit = controller.update(measurement(commits=100, conflicts=75))
        assert new_limit == pytest.approx(10.0)

    def test_backoff_proportional_to_excess(self):
        gentle = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=50)
        harsh = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=50)
        gentle_limit = gentle.update(measurement(commits=100, conflicts=80))
        harsh_limit = harsh.update(measurement(commits=100, conflicts=300))
        assert harsh_limit < gentle_limit

    def test_never_below_lower_bound(self):
        controller = IyerRule(target_conflicts=0.5, step=100.0, initial_limit=5, lower_bound=2)
        assert controller.update(measurement(commits=10, conflicts=100)) == 2.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            IyerRule(target_conflicts=0.0)
        with pytest.raises(ValueError):
            IyerRule(step=0.0)
        with pytest.raises(ValueError):
            IyerRule(deadband=-0.1)

    def test_converges_near_target_on_synthetic_conflict_model(self):
        """Closed loop against a toy plant where conflicts grow linearly with n."""
        controller = IyerRule(target_conflicts=0.75, step=2.0, initial_limit=5,
                              upper_bound=200)
        limit = controller.current_limit
        conflicts_per_txn = 0.0
        for step in range(200):
            conflicts_per_txn = 0.01 * limit  # plant: conflicts proportional to load
            commits = 100
            limit = controller.update(measurement(
                commits=commits, conflicts=int(round(conflicts_per_txn * commits)),
                concurrency=limit, limit=limit, time=float(step)))
        # the plant hits 0.75 conflicts per transaction at n = 75
        assert 55 <= limit <= 95
