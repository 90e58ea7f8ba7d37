"""Tests for run metrics and interval accounting."""

import pytest

from repro.cc.base import AbortReason
from repro.sim.engine import Simulator
from repro.tp.metrics import IntervalCounters, RunMetrics


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def metrics(sim):
    return RunMetrics(sim)


class TestRunTotals:
    def test_initially_empty(self, metrics):
        assert metrics.commits == 0
        assert metrics.total_aborts == 0
        assert metrics.throughput() == 0.0
        assert metrics.restart_ratio == 0.0
        assert metrics.conflict_ratio == 0.0

    def test_commit_recording(self, sim, metrics):
        sim._now = 10.0
        metrics.record_commit(response_time=2.0, conflicts=0)
        metrics.record_commit(response_time=4.0, conflicts=1)
        assert metrics.commits == 2
        assert metrics.mean_response_time() == pytest.approx(3.0)
        assert metrics.throughput() == pytest.approx(0.2)
        assert metrics.conflict_ratio == pytest.approx(0.5)

    def test_abort_recording_by_reason(self, metrics):
        metrics.record_abort(AbortReason.CERTIFICATION)
        metrics.record_abort(AbortReason.CERTIFICATION)
        metrics.record_abort(AbortReason.DEADLOCK)
        metrics.record_abort(AbortReason.DISPLACEMENT)
        assert metrics.aborts_by_reason[AbortReason.CERTIFICATION] == 2
        assert metrics.aborts_by_reason[AbortReason.DEADLOCK] == 1
        assert metrics.aborts_by_reason[AbortReason.DISPLACEMENT] == 1
        assert metrics.total_aborts == 4
        # displacement does not count as a restart (no re-run follows inside
        # the system), certification failures and deadlocks do
        assert metrics.restarts == 3

    def test_restart_ratio(self, metrics):
        metrics.record_commit(1.0)
        metrics.record_abort(AbortReason.CERTIFICATION)
        metrics.record_abort(AbortReason.CERTIFICATION)
        assert metrics.restart_ratio == pytest.approx(2.0)

    def test_throughput_window_bound_by_reset(self, sim, metrics):
        """Regression: reset() binds the rate window to the reset instant.

        Pre-fix, ``throughput(since=)`` left the window to the caller, so
        the post-reset commit count was silently divided by a horizon that
        included time before the reset (the default ``since=0.0`` here
        would yield 2 / 20 = 0.1 instead of 2 / 10 = 0.2).
        """
        sim._now = 10.0
        metrics.record_commit(1.0)  # pre-reset commit, must not count
        metrics.reset()
        assert metrics.measured_from == 10.0
        sim._now = 20.0
        metrics.record_commit(1.0)
        metrics.record_commit(1.0)
        assert metrics.throughput() == pytest.approx(0.2)

    def test_reset_clears_counters(self, sim, metrics):
        metrics.record_commit(1.0)
        metrics.record_abort(AbortReason.CERTIFICATION)
        sim._now = 5.0
        metrics.reset()
        assert metrics.commits == 0
        assert metrics.total_aborts == 0
        assert metrics.response_times.count == 0


class TestIntervalAccounting:
    def test_snapshot_returns_and_resets(self, sim, metrics):
        metrics.record_commit(2.0, conflicts=1)
        metrics.record_abort(AbortReason.CERTIFICATION, conflicts=2)
        interval = metrics.snapshot_interval()
        assert interval.commits == 1
        assert interval.aborts == 1
        assert interval.conflicts == 3
        assert interval.mean_response_time() == pytest.approx(2.0)
        # after the snapshot the next interval starts empty
        follow_up = metrics.snapshot_interval()
        assert follow_up.commits == 0
        assert follow_up.aborts == 0

    def test_run_totals_survive_snapshots(self, metrics):
        metrics.record_commit(1.0)
        metrics.snapshot_interval()
        metrics.record_commit(1.0)
        metrics.snapshot_interval()
        assert metrics.commits == 2

    def test_empty_interval_counters(self):
        counters = IntervalCounters()
        assert counters.mean_response_time() == 0.0


def _quantile_state(estimator):
    """The complete internal state of a P² estimator, for exact comparison."""
    return (estimator.probability, estimator.count,
            tuple(estimator._heights), tuple(estimator._positions),
            tuple(estimator._desired))


def _observable_state(metrics):
    """Every run-level quantity a caller can read off a RunMetrics."""
    return {
        "commits": metrics.commits,
        "submitted": metrics.submitted,
        "restarts": metrics.restarts,
        "conflicts": metrics.conflicts,
        "aborts_by_reason": dict(metrics.aborts_by_reason),
        "shed": metrics.shed,
        "shed_by_tenant": dict(metrics.shed_by_tenant),
        "commits_by_tenant": dict(metrics.commits_by_tenant),
        "response_stats": (metrics.response_times.count,
                           metrics.response_times.total,
                           metrics.response_times.maximum),
        "p95": _quantile_state(metrics.response_p95),
        "p99": _quantile_state(metrics.response_p99),
        "tenant_p95": {tenant: _quantile_state(estimator)
                       for tenant, estimator in metrics.tenant_response_p95.items()},
        "tenant_p99": {tenant: _quantile_state(estimator)
                       for tenant, estimator in metrics.tenant_response_p99.items()},
        "measured_from": metrics.measured_from,
        "throughput": metrics.throughput(),
        "mean_response_time": metrics.mean_response_time(),
    }


class TestResetEquivalence:
    """``reset()`` must leave the object indistinguishable from a fresh
    RunMetrics built at the reset instant — the warm-up discard contract
    that every measured window (and the SLO percentiles) relies on."""

    def _event_batch(self, seed, start, count=120):
        """A deterministic, varied event sequence starting at ``start``."""
        import math

        events = []
        t = start
        for i in range(count):
            t += 0.05 + 0.04 * math.sin(seed + i)
            tenant = ("steady", "burst", "")[i % 3]
            kind = i % 7
            if kind < 4:
                events.append(("commit", t, 0.1 + 0.3 * ((seed * i) % 11) / 11.0,
                               i % 2, tenant))
            elif kind == 4:
                events.append(("abort", t,
                               AbortReason.CERTIFICATION if i % 2 else AbortReason.DEADLOCK))
            elif kind == 5:
                events.append(("shed", t, tenant))
            else:
                events.append(("abort", t, AbortReason.DISPLACEMENT))
            events.append(("submit", t))
        return events

    def _apply(self, metrics, sim, events):
        for event in events:
            sim._now = event[1]
            if event[0] == "commit":
                metrics.record_commit(event[2], conflicts=event[3], tenant=event[4])
            elif event[0] == "abort":
                metrics.record_abort(event[2])
            elif event[0] == "shed":
                metrics.record_shed(event[2])
            elif event[0] == "submit":
                metrics.record_submission()

    def test_reset_equals_fresh_metrics_replaying_the_same_events(self):
        warmup = self._event_batch(seed=3, start=0.0)
        measured = self._event_batch(seed=5, start=10.0)

        sim = Simulator()
        survivor = RunMetrics(sim)
        self._apply(survivor, sim, warmup)
        sim._now = 10.0
        survivor.reset()
        self._apply(survivor, sim, measured)

        fresh_sim = Simulator()
        fresh_sim._now = 10.0
        fresh = RunMetrics(fresh_sim)
        self._apply(fresh, fresh_sim, measured)

        fresh_sim._now = sim.now
        assert _observable_state(survivor) == _observable_state(fresh)

    def test_reset_forgets_warmup_quantiles(self):
        """The SLO estimators restart: extreme warm-up latencies must not
        leak into the measured percentiles."""
        sim = Simulator()
        metrics = RunMetrics(sim)
        for _ in range(50):
            metrics.record_commit(100.0)        # pathological warm-up
        metrics.reset()
        for _ in range(50):
            metrics.record_commit(0.2)
        assert metrics.p95_response_time < 1.0
        assert metrics.p99_response_time < 1.0
        # unnamed (single-class) commits book no tenant
        assert metrics.commits_by_tenant == {}
