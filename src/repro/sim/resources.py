"""The CPU station: an FCFS multi-server queue computed on arrival.

:class:`Resource` is the paper's homogeneous multiprocessor: ``m`` servers
(CPUs) serving one shared FCFS queue.  A process uses it through one
:class:`Visit` per CPU phase: ``yield resource.visit(demand, delay, draws)``
queues for a server, holds it for the service time, releases it and then
waits out ``delay`` (the model's constant disk time).  The process resumes
once, when the delay ends.

Nothing that happens at the station between a visit's arrival and its end
changes when the visit ends, so the station schedules no event of its own
and computes each visit when it is made (rule 7 of
:mod:`repro.sim.engine`).  The service time is drawn then: with a reader
``draws`` (the model's ``cpu-demand`` stream, an
:class:`~repro.tp.workload.ExponentialDraws`) a positive ``demand`` takes
one standard variate ``x`` and is served for ``demand * x``; without one it
is served for ``demand``.  The visit starts at max(now, the earliest time a
server is free), which a heap of the ``m`` servers' free times answers (the
Kiefer-Wolfowitz recursion), holds that server until its finish, start +
service, and is scheduled once, at finish + delay, numbered when made.  All
drawing visits of one station read one reader.

Cancelling.  ``resource.cancel(visit)`` withdraws a visit, which is how a
displaced transaction leaves the station.  A visit that has released its
server (its finish is not after now: it is in its delay, or over) is left
alone, so cancelling twice changes nothing.  Otherwise the visit's entry
leaves the queue, the visit reads as not triggered, and:

* a visit that has not started (its start is now or later) gives its
  variate back: the variate passes to the next drawing visit behind it,
  that one's to the next, and the last one's returns to the reader, so the
  k-th variate still serves the k-th visit that starts;
* a visit in service frees its server now;
* every visit behind it that has not started is timed again, keeping its
  number.

Cancels come only from displacement and are rare, so a cancel rebuilds the
servers' free times, the pending releases and the simulator's queue in
O(N) rather than adding bookkeeping to :meth:`Resource.visit`.  A visit
refers to its station and the station to no visit, so the visits left
queued at the end of a run form no cycle with it.

Statistics.  FCFS is work-conserving: at every instant min(m, present)
servers are busy, where present counts the visits made and not yet
released.  The busy-time integral behind :meth:`Resource.utilisation` is
split at every arrival, every release and every cancel: the station keeps
the pending finish times in a heap and folds the releases due by now into
the integral, in time order, whenever it is used or read.  A visit that
hands its server over at its finish therefore splits the sum exactly where
a service completion event would.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Optional, Protocol

from repro.sim.engine import Event, Simulator


class StandardDraws(Protocol):
    """A single-reader stream of standard variates that takes one back."""

    def standard(self) -> float:
        """The next variate."""

    def put_back(self, value: float) -> None:
        """Return ``value``, the latest variate taken, so the next one read is it."""


def _give_back(visit: "Visit", behind: list, draws: StandardDraws) -> None:
    """Pass the variate of ``visit``, which never started, down the drawing visits ``behind`` it.

    Each takes the variate of the drawing visit before it, and the last
    one's returns to ``draws``: the variates go to the visits that start
    in the order they were read.
    """
    variate = visit.variate
    if variate is None:
        return
    for later in behind:
        if later.variate is not None:
            variate, later.variate = later.variate, variate
    draws.put_back(variate)


class Visit(Event):
    """One pass of a process through a :class:`Resource`.

    The visit is scheduled when made, for the end of its delay; a process
    that yields it resumes then, with ``None``.  It takes its server at
    ``start`` and releases it at :attr:`finish`.  A cancelled visit reads
    as a visit of no service at the cancel instant.  ``finish`` is
    computed, not stored: a waiting visit lives from its arrival, an
    uncontrolled open cell queues hundreds at once, and twelve slots keep
    a visit as small as the event-driven visit it replaced.
    """

    __slots__ = ("station", "demand", "delay", "variate", "start")

    @property
    def finish(self) -> float:
        """When the visit releases its server: its start plus ``demand * variate``, or ``demand``."""
        variate = self.variate
        return self.start + (self.demand if variate is None else self.demand * variate)


class Resource:
    """First-come-first-served multi-server station, computed on arrival.

    ``capacity`` servers are available; visits beyond the capacity wait in
    an FCFS queue.  The resource keeps the busy-time integral behind
    :meth:`utilisation`, which the measurement layer reports.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        #: a heap of the time each server is free next
        self._free = [sim.now] * self.capacity
        #: a heap of the finish times of the visits present, the releases
        #: not yet folded into the busy-time integral
        self._releases: list = []
        #: the reader the drawing visits read, which takes back the
        #: variates of the visits cancelled before they start
        self._draws: Optional[StandardDraws] = None
        # statistics: time integral of busy servers
        self._last_change = sim.now
        self._busy_time_integral = 0.0
        # start of the measured window: construction time, rebound by
        # reset_statistics() so the rate denominator always matches the span
        # the integral actually covers
        self._measured_from = sim.now

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        self._fold(self.sim._now)
        present = len(self._releases)
        return present if present < self.capacity else self.capacity

    @property
    def queue_length(self) -> int:
        """Number of visits waiting for a server."""
        self._fold(self.sim._now)
        waiting = len(self._releases) - self.capacity
        return waiting if waiting > 0 else 0

    # ------------------------------------------------------------------
    def visit(self, demand: float, delay: float,
              draws: Optional[StandardDraws] = None) -> Visit:
        """Queue for a server, hold it, release it, then wait out ``delay``.

        The service time is ``demand`` times a variate read from ``draws``
        now, or ``demand`` itself without a reader or with a zero demand.
        The visit is scheduled before this call returns, for the end of its
        delay; the visitor resumes then.
        """
        if demand < 0 or delay < 0:
            raise ValueError(f"visit demand and delay must be non-negative, got {demand}, {delay}")
        sim = self.sim
        now = sim._now
        # _accumulate(now), inline: fold the releases due, then split at now
        releases = self._releases
        capacity = self.capacity
        last = self._last_change
        integral = self._busy_time_integral
        while releases and releases[0] <= now:
            release = heappop(releases)
            if release > last:
                present = len(releases) + 1
                integral += (release - last) * (present if present < capacity else capacity)
                last = release
        if now > last:
            present = len(releases)
            integral += (now - last) * (present if present < capacity else capacity)
        self._busy_time_integral = integral
        self._last_change = now
        demand = float(demand)
        delay = float(delay)
        if draws is not None and demand > 0:
            self._draws = draws
            variate = draws.standard()
            service = demand * variate
        else:
            variate = None
            service = demand
        free = self._free
        start = free[0]
        if start < now:
            start = now
        finish = start + service
        heapreplace(free, finish)
        heappush(releases, finish)
        # inline Event.__init__ -- one visit is made per CPU phase
        visit = Visit.__new__(Visit)
        visit.sim = sim
        visit.callbacks = None
        visit._value = None
        visit._exception = None
        visit._triggered = True
        visit._processed = False
        visit._waiter = None
        visit.station = self
        visit.demand = demand
        visit.delay = delay
        visit.variate = variate
        visit.start = start
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (finish + delay, seq, visit))
        return visit

    def cancel(self, visit: Visit) -> None:
        """Withdraw ``visit``: leave the queue, or release the server if held.

        A visit that already released its server (it is in its delay, or
        over) is left alone, so cancelling twice is a no-op.
        """
        sim = self.sim
        now = sim._now
        if visit.finish <= now:
            return
        self._accumulate(now)
        queue = sim._queue
        # this station's visits that hold or wait for a server, in the order made
        present = [pending for _seq, pending in sorted(
            (seq, pending) for _time, seq, pending in queue
            if type(pending) is Visit and pending.station is self and pending.finish > now)]
        waiting = [pending for pending in present if pending.start >= now]
        if visit.start >= now:
            _give_back(visit, waiting[waiting.index(visit) + 1:], self._draws)
            waiting.remove(visit)
        present.remove(visit)
        visit.start = now
        visit.demand = 0.0
        visit.variate = None
        visit._triggered = False
        # each server is held until its finish by a visit in service, or free now
        free = [pending.finish for pending in present if pending.start < now]
        free += [now] * (self.capacity - len(free))
        heapify(free)
        for later in waiting:
            later.start = free[0]
            heapreplace(free, later.finish)
        self._free = free
        self._releases = [pending.finish for pending in present]
        heapify(self._releases)
        queue[:] = [(time, seq, pending) if type(pending) is not Visit or pending.station is not self
                    else (pending.finish + pending.delay, seq, pending)
                    for time, seq, pending in queue if pending is not visit]
        heapify(queue)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _fold(self, now: float) -> None:
        """Fold the releases due by ``now`` into the busy-time integral, in time order."""
        releases = self._releases
        if not releases or releases[0] > now:
            return
        capacity = self.capacity
        last = self._last_change
        integral = self._busy_time_integral
        while releases and releases[0] <= now:
            release = heappop(releases)
            if release > last:
                # the servers busy until this release, which is still present
                present = len(releases) + 1
                integral += (release - last) * (present if present < capacity else capacity)
                last = release
        self._last_change = last
        self._busy_time_integral = integral

    def _accumulate(self, now: float) -> None:
        """Fold the releases due by ``now``, then split the integral at ``now``."""
        self._fold(now)
        elapsed = now - self._last_change
        if elapsed > 0:
            present = len(self._releases)
            self._busy_time_integral += elapsed * (present if present < self.capacity else self.capacity)
            self._last_change = now

    def utilisation(self) -> float:
        """Mean fraction of busy servers over the measured window.

        The window runs from construction (or the last
        :meth:`reset_statistics`, the end of warm-up) to now — the same
        span the busy-time integral covers, so the ratio cannot be
        computed against a mismatched window.
        """
        self._accumulate(self.sim._now)
        horizon = self.sim.now - self._measured_from
        if horizon <= 0:
            return 0.0
        return self._busy_time_integral / (horizon * self.capacity)

    def reset_statistics(self) -> None:
        """Forget accumulated statistics (used at the end of warm-up)."""
        self._accumulate(self.sim._now)
        self._busy_time_integral = 0.0
        self._last_change = self.sim.now
        self._measured_from = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} capacity={self.capacity} "
            f"in_use={self.in_use} queued={self.queue_length}>"
        )
