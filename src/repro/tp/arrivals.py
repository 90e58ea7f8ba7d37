"""Arrival models: closed terminals, open Poisson, partly-open sessions.

The paper's physical model is *closed*: ``N`` terminals resubmit after an
exponential think time, so the offered load is bounded by construction and
the admission queue can never grow without limit.  Real transaction systems
face *open* traffic — arrivals keep coming whether or not earlier work has
finished — and the partly-open middle ground, where independent sessions
arrive from outside but each session submits a finite burst of transactions
before leaving.  The load-control question changes character across these
shapes: an open overload cannot be absorbed by slowing the sources down, so
the gate must shed work instead of merely queueing it.

This module describes the arrival shape as frozen dataclasses that hold no
run state, like the schedules of :mod:`repro.tp.workload`:

* :class:`ClosedArrivals` — the paper's terminal model (also selected by
  ``arrivals=None`` everywhere, which keeps every existing trajectory
  bit-identical);
* :class:`OpenArrivals` — a Poisson source whose rate is a
  :class:`~repro.tp.workload.ParameterSchedule`, so diurnal sinusoids and
  flash-crowd jumps reuse the existing schedule machinery.  Nonhomogeneous
  rates are realised by Lewis–Shedler thinning against the schedule's
  static :meth:`~repro.tp.workload.ParameterSchedule.peak`;
* :class:`PartlyOpenArrivals` — sessions arrive Poisson, each submitting a
  bounded-Pareto number of transactions back to back (with an optional
  exponential intra-session think time).

All draws use dedicated :class:`~repro.sim.random_streams.RandomStreams`
names (``arrival-interarrival``, ``arrival-thinning``, ``session-size``,
``session-think``), so attaching an arrival process never perturbs the
streams a closed run consumes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.tp.workload import ConstantSchedule, ParameterSchedule, _as_schedule, _store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.random_streams import RandomStreams

#: stream names consumed by the arrival machinery — dedicated names so the
#: closed model's streams ("think-time", "txn-class", ...) are untouched
INTERARRIVAL_STREAM = "arrival-interarrival"
THINNING_STREAM = "arrival-thinning"
SESSION_SIZE_STREAM = "session-size"
SESSION_THINK_STREAM = "session-think"


class ArrivalProcess(ABC):
    """How transactions enter the system, as a frozen dataclass.

    Like :class:`~repro.tp.workload.ParameterSchedule`, every concrete
    process holds configuration only, so it compares and hashes by its
    fields and a :class:`~repro.runner.specs.RunSpec` carrying one equals
    its copy after a trip through the dist wire protocol.
    """

    #: wire-format discriminator, set by each concrete subclass
    kind = ""

    @abstractmethod
    def next_interarrival(self, streams: "RandomStreams", now: float) -> float:
        """Draw the gap until the next arrival after ``now``."""

    def session_size(self, streams: "RandomStreams") -> int:
        """Transactions submitted per arrival (1 unless partly-open)."""
        return 1

    #: mean think time between a session's transactions (0 = back to back)
    session_think_time = 0.0


@dataclass(frozen=True)
class ClosedArrivals(ArrivalProcess):
    """The paper's closed model: ``N`` terminals with exponential think.

    Exists so specs can *name* the closed shape explicitly; it carries no
    configuration of its own (the terminal count and think time live in
    :class:`~repro.tp.params.SystemParams`) and the system treats it
    exactly like ``arrivals=None``.
    """

    kind = "closed"

    def next_interarrival(self, streams: "RandomStreams", now: float) -> float:
        """Refuse to draw: closed traffic comes from the terminals."""
        raise NotImplementedError(
            "closed arrivals are generated by the terminal processes, "
            "not by an arrival source"
        )


@dataclass(frozen=True)
class OpenArrivals(ArrivalProcess):
    """A Poisson source with a (possibly time-varying) rate schedule.

    Every arrival submits exactly one transaction and leaves; the offered
    load is whatever the rate schedule says, regardless of how congested
    the system already is.  Nonhomogeneous rates use Lewis–Shedler
    thinning: candidate gaps are exponential at the schedule's static peak
    rate, and each candidate is accepted with probability ``rate(t)/peak``
    drawn on a separate thinning stream.  Constant-rate schedules skip the
    thinning draws entirely (one exponential per arrival).

    A dynamic schedule (sinusoid) may dip below zero; no arrival is
    accepted while the rate is negative, since the acceptance draw lies in
    ``[0, peak)``.  Static negative rates are rejected at construction.
    """

    kind = "open"

    #: the arrival rate; a number becomes a :class:`ConstantSchedule`
    rate: ParameterSchedule

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _as_schedule(self.rate))
        peak = self.rate.peak()
        if not math.isfinite(peak) or peak <= 0.0:
            raise ValueError(
                f"arrival rate schedule must have a positive finite peak, got {peak}"
            )
        for value in self.rate.values():
            if value < 0.0:
                raise ValueError(
                    f"arrival rate schedule value {value} is negative; the "
                    "source would silently emit nothing at that rate"
                )

    def next_interarrival(self, streams: "RandomStreams", now: float) -> float:
        """Gap to the next arrival, by thinning against the peak rate."""
        rate = self.rate
        if isinstance(rate, ConstantSchedule):
            return float(streams.exponential(INTERARRIVAL_STREAM, 1.0 / rate.value))
        peak = rate.peak()
        gap_rng = streams.stream(INTERARRIVAL_STREAM)
        gap = 0.0
        while True:
            gap += float(gap_rng.exponential(1.0 / peak))
            accept = float(streams.uniform(THINNING_STREAM, 0.0, peak))
            if accept < rate(now + gap):
                return gap


@dataclass(frozen=True)
class PartlyOpenArrivals(OpenArrivals):
    """Sessions arrive Poisson; each submits a bounded-Pareto burst.

    The rate schedule governs *session* arrivals.  Each session draws its
    transaction count from a bounded Pareto on ``[min_session,
    max_session]`` with shape ``session_alpha`` (heavy-tailed session
    lengths are the standard partly-open workload model), then submits
    that many transactions sequentially, separated by an exponential think
    time of mean :attr:`session_think_time` (0 = back to back).
    """

    kind = "partly_open"

    session_alpha: float = 1.5
    min_session: int = 1
    max_session: int = 50
    session_think_time: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.session_alpha <= 0.0:
            raise ValueError(f"session_alpha must be positive, got {self.session_alpha}")
        if not 1 <= int(self.min_session) <= int(self.max_session):
            raise ValueError(
                f"session bounds must satisfy 1 <= min <= max, got "
                f"[{self.min_session}, {self.max_session}]"
            )
        if self.session_think_time < 0.0:
            raise ValueError(
                f"session_think_time must be non-negative, got {self.session_think_time}"
            )
        _store(self, float, "session_alpha", "session_think_time")
        _store(self, int, "min_session", "max_session")

    def session_size(self, streams: "RandomStreams") -> int:
        """Draw a session's transaction count (bounded-Pareto inverse CDF).

        Always consumes exactly one draw on the ``session-size`` stream, so
        the draw discipline is independent of the configured bounds.
        """
        u = float(streams.uniform(SESSION_SIZE_STREAM, 0.0, 1.0))
        alpha = self.session_alpha
        low = float(self.min_session)
        high = float(self.max_session)
        if low == high:
            return self.min_session
        # inverse CDF of the Pareto truncated to [low, high]:
        # F(x) = (1 - (low/x)^alpha) / (1 - (low/high)^alpha)
        x = low / (1.0 - u * (1.0 - (low / high) ** alpha)) ** (1.0 / alpha)
        return max(self.min_session, min(self.max_session, int(math.floor(x))))
