"""Data types exchanged between the measurement layer and the controllers.

Keeping these as plain dataclasses decouples the controllers from the
simulator: a controller can be driven from the discrete-event model, from
the synthetic overload function, or (in a real deployment) from a DBMS
monitoring facility, as long as someone fills in an
:class:`IntervalMeasurement` per sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class IntervalMeasurement:
    """Quantities observed during one measurement interval ``[t_i, t_{i+1})``.

    The paper's controllers use the realized (load, performance) pair of the
    interval; the remaining fields support the alternative performance
    indices discussed in Section 6 and the rule-of-thumb controllers.
    """

    #: time at the *end* of the interval (the sampling instant ``t_{i+1}``)
    time: float
    #: length of the interval in simulated seconds
    interval_length: float
    #: committed transactions per second during the interval (``P(t_i)``)
    throughput: float
    #: time-averaged number of admitted transactions during the interval
    mean_concurrency: float
    #: number of admitted transactions at the sampling instant (``n(t_i)``)
    concurrency_at_sample: float
    #: threshold ``n*`` that was in effect during the interval
    current_limit: float
    #: commits during the interval
    commits: int = 0
    #: abandoned executions (restarts) during the interval
    aborts: int = 0
    #: certification conflicts (or deadlocks) during the interval
    conflicts: int = 0
    #: mean submission-to-commit latency of the interval's commits
    mean_response_time: float = 0.0
    #: mean number of data accesses per transaction observed (for rule-based
    #: controllers that need the current ``k``)
    mean_accesses_per_txn: Optional[float] = None

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError(
                f"interval_length must be positive, got {self.interval_length}"
            )
        if self.throughput < 0:
            raise ValueError(f"throughput must be non-negative, got {self.throughput}")

    @property
    def conflicts_per_commit(self) -> float:
        """Average conflicts per committed transaction in the interval."""
        if self.commits == 0:
            return 0.0
        return self.conflicts / self.commits

    @property
    def effective_utilisation_proxy(self) -> float:
        """Commits per started execution -- a cheap useful-work indicator."""
        started = self.commits + self.aborts
        if started == 0:
            return 0.0
        return self.commits / started


@dataclass
class ControlTrace:
    """Trajectory of the control loop over a run.

    One entry is appended per measurement interval; benchmarks use the trace
    to regenerate the trajectory figures (13 and 14) and the tracking-error
    metrics.
    """

    times: List[float] = field(default_factory=list)
    limits: List[float] = field(default_factory=list)
    concurrency: List[float] = field(default_factory=list)
    throughput: List[float] = field(default_factory=list)
    response_times: List[float] = field(default_factory=list)
    conflicts_per_commit: List[float] = field(default_factory=list)

    def append(self, measurement: IntervalMeasurement, new_limit: float) -> None:
        """Record one closed-loop step."""
        self.times.append(measurement.time)
        self.limits.append(new_limit)
        self.concurrency.append(measurement.mean_concurrency)
        self.throughput.append(measurement.throughput)
        self.response_times.append(measurement.mean_response_time)
        self.conflicts_per_commit.append(measurement.conflicts_per_commit)

    def __len__(self) -> int:
        return len(self.times)

    def mean_throughput(self) -> float:
        """Average of the per-interval throughputs (0 if empty)."""
        if not self.throughput:
            return 0.0
        return sum(self.throughput) / len(self.throughput)

    def limit_series(self) -> Sequence[tuple]:
        """The (time, limit) series, e.g. for plotting figure 13/14 style."""
        return tuple(zip(self.times, self.limits))
