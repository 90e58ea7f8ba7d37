"""Run-level metrics for the transaction processing model.

The measurement layer of the load controller (Section 5) works on *interval
deltas*: commits, aborts and response times observed since the previous
sample.  :class:`RunMetrics` therefore keeps monotone counters plus
per-interval accumulators that the measurement process resets after each
sample; the run totals remain available for final reports.

Each run fact has one owner.  :class:`RunMetrics` owns the counts, the sheds
and the response times; the time-averaged load ``n(t)`` belongs to the
admission gate (``AdmissionGate.load_stats``), and sampled gauges such as
the admission queue length belong to the probes of :mod:`repro.obs.probes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.cc.base import AbortReason
from repro.sim.engine import Simulator
from repro.sim.stats import ObservationStats, P2Quantile


@dataclass(slots=True)
class IntervalCounters:
    """Deltas accumulated since the last measurement sample."""

    commits: int = 0
    aborts: int = 0
    conflicts: int = 0
    response_time_sum: float = 0.0
    response_time_count: int = 0

    def mean_response_time(self) -> float:
        """Mean response time of the commits in this interval (0 if none)."""
        if self.response_time_count == 0:
            return 0.0
        return self.response_time_sum / self.response_time_count


class RunMetrics:
    """Counters and statistics for one simulation run."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        # run totals
        self.commits = 0
        self.submitted = 0
        self.restarts = 0
        self.conflicts = 0
        self.aborts_by_reason: Dict[AbortReason, int] = {reason: 0 for reason in AbortReason}
        self.response_times = ObservationStats()
        # streaming SLO percentiles of the response-time distribution; pure
        # functions of the commit sequence (no RNG), so accumulating them
        # unconditionally leaves every trajectory untouched
        self.response_p95 = P2Quantile(0.95)
        self.response_p99 = P2Quantile(0.99)
        #: per-tenant commit counts and SLO percentiles (tenant = class name
        #: of a mixed-class workload; the single-class workload's unnamed
        #: commits book none)
        self.commits_by_tenant: Dict[str, int] = {}
        self.tenant_response_p95: Dict[str, P2Quantile] = {}
        self.tenant_response_p99: Dict[str, P2Quantile] = {}
        #: arrivals rejected outright by a tenant queue quota
        self.shed = 0
        self.shed_by_tenant: Dict[str, int] = {}
        # interval accumulators for the measurement process
        self._interval = IntervalCounters()
        #: start of the run-level measured window: construction time, rebound
        #: by :meth:`reset` (the end of warm-up).  Rate metrics divide by
        #: ``now - measured_from`` — the same origin the counters use, so a
        #: caller can no longer pair the post-reset commit count with a
        #: mismatched window of their own choosing.
        self.measured_from = sim.now

    # ------------------------------------------------------------------
    # event recording (called by the transaction system)
    # ------------------------------------------------------------------
    def record_submission(self) -> None:
        """A terminal submitted a new transaction to the gate."""
        self.submitted += 1

    def record_commit(self, response_time: float, conflicts: int = 0,
                      tenant: str = "") -> None:
        """A transaction committed with the given submission-to-commit latency."""
        self.commits += 1
        self.response_times.add(response_time)
        self.response_p95.add(response_time)
        self.response_p99.add(response_time)
        if tenant:
            # only named tenants: tenant_slo is asked for class names only
            self.commits_by_tenant[tenant] = self.commits_by_tenant.get(tenant, 0) + 1
            p95 = self.tenant_response_p95.get(tenant)
            if p95 is None:
                p95 = self.tenant_response_p95[tenant] = P2Quantile(0.95)
                self.tenant_response_p99[tenant] = P2Quantile(0.99)
            p95.add(response_time)
            self.tenant_response_p99[tenant].add(response_time)
        interval = self._interval
        interval.commits += 1
        interval.response_time_sum += response_time
        interval.response_time_count += 1
        interval.conflicts += conflicts
        self.conflicts += conflicts

    def record_shed(self, tenant: str = "") -> None:
        """An arrival was rejected outright by a tenant queue quota."""
        self.shed += 1
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1

    def record_abort(self, reason: AbortReason, conflicts: int = 0) -> None:
        """An execution was abandoned (it may restart afterwards)."""
        self.aborts_by_reason[reason] += 1
        interval = self._interval
        interval.aborts += 1
        if reason is not AbortReason.DISPLACEMENT:
            self.restarts += 1
        self.conflicts += conflicts
        interval.conflicts += conflicts

    # ------------------------------------------------------------------
    # interval handling for the measurement process
    # ------------------------------------------------------------------
    def snapshot_interval(self) -> IntervalCounters:
        """Return and reset the per-interval accumulators."""
        interval = self._interval
        self._interval = IntervalCounters()
        return interval

    # ------------------------------------------------------------------
    # derived run-level quantities
    # ------------------------------------------------------------------
    def throughput(self) -> float:
        """Committed transactions per second over the measured window.

        The window runs from :attr:`measured_from` (construction, or the
        last :meth:`reset`) to now — exactly the span over which
        :attr:`commits` has been counting.
        """
        horizon = self.sim.now - self.measured_from
        if horizon <= 0:
            return 0.0
        return self.commits / horizon

    @property
    def total_aborts(self) -> int:
        """Abandoned executions of any kind."""
        return sum(self.aborts_by_reason.values())

    @property
    def restart_ratio(self) -> float:
        """Abandoned executions per commit (wasted work indicator)."""
        if self.commits == 0:
            return 0.0
        return self.restarts / self.commits

    @property
    def conflict_ratio(self) -> float:
        """Certification conflicts per commit."""
        if self.commits == 0:
            return 0.0
        return self.conflicts / self.commits

    def mean_response_time(self) -> float:
        """Mean submission-to-commit latency over the run."""
        return self.response_times.mean

    @property
    def p95_response_time(self) -> float:
        """Streaming 95th-percentile submission-to-commit latency."""
        return self.response_p95.value

    @property
    def p99_response_time(self) -> float:
        """Streaming 99th-percentile submission-to-commit latency, clamped to the 95th."""
        return _p99(self.response_p95, self.response_p99)

    def tenant_slo(self, tenants: Iterable[str]) -> Dict[str, float]:
        """Per-tenant commits, sheds and p95/p99 latency, keyed ``tenant_<metric>_<name>``.

        Keyed by ``tenants`` (the spec's class names), never by the tenants
        that happened to commit, so the schema is a pure function of the spec.
        """
        out: Dict[str, float] = {}
        for name in tenants:
            out[f"tenant_commits_{name}"] = float(self.commits_by_tenant.get(name, 0))
            out[f"tenant_shed_{name}"] = float(self.shed_by_tenant.get(name, 0))
            p95 = self.tenant_response_p95.get(name)
            committed = p95 is not None
            out[f"tenant_p95_response_time_{name}"] = p95.value if committed else 0.0
            out[f"tenant_p99_response_time_{name}"] = (
                _p99(p95, self.tenant_response_p99[name]) if committed else 0.0)
        return out

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        self.__init__(self.sim)


def _p99(p95: P2Quantile, p99: P2Quantile) -> float:
    # independent P² estimates can cross slightly under heavy-tailed
    # overload; clamping keeps the p95 <= p99 invariant for consumers
    return max(p99.value, p95.value)
