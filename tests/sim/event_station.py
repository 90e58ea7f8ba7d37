"""The event-driven CPU station that ``repro.sim.resources`` replaced, kept as an oracle.

This station runs a visit's stages as events: a grant, then a service
completion at grant + service, then the end of the delay.  It draws the
service time, ``draw(demand)``, when the grant comes due.  A grant made
while no heap entry is due at the current instant comes due at once, in
the call that made it; otherwise it is scheduled for now, behind the
entries already due.  A scheduled grant or a completion that comes due
while nothing waits on the visit does nothing: its visitor was interrupted,
and cancels.  Cancelling a queued visit removes it; cancelling a granted
or served one releases its server.  Cancelling during the delay, or after,
changes nothing.

``test_station_oracle.py`` runs tie-free scripts on this station and on
:class:`repro.sim.resources.Resource` and requires every visit to get the
same service time and end at the same instant, and ``utilisation()`` to
agree to the bit.  Where no two instants tie, the station computed on
arrival must reproduce this one exactly: the same draws, the same busy-time
splits, the same releases.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional

from repro.sim.engine import Event, Simulator

# the stages of a visit; _LEFT: released its server, or cancelled
_WAITING, _GRANTED, _SERVED, _LEFT = range(4)


def _process_now(event: Event) -> None:
    """Process a triggered ``event`` at once, with no heap entry, as the run loop would."""
    event._processed = True
    waiter = event._waiter
    if waiter is not None:
        event._waiter = None
        waiter._resume(event)
    callbacks = event.callbacks
    if callbacks is not None:
        for callback in callbacks:
            callback(event)
        event.callbacks = None


class _StationEntry:
    """The heap entry of a visit's scheduled grant, and of its service completion.

    It has the three fields the run loop touches on an event, and the
    station that granted the visit.  Its waiter is the visit, whose
    ``_resume`` runs the stage that came due.
    """

    __slots__ = ("_processed", "_waiter", "callbacks", "station")


class Visit(Event):
    """One pass of a process through a :class:`Resource`.

    The event is triggered when the delay after the release is scheduled
    and processed when it ends; a process that yields the visit resumes
    then, with ``None``.
    """

    __slots__ = ("demand", "delay", "draw", "stage")

    def _resume(self, entry: _StationEntry) -> None:
        """Run the stage whose heap ``entry`` came due: the grant or the completion."""
        if self._waiter is None and not self.callbacks:
            # nothing waits: the visitor was interrupted, and its cancel
            # releases the server
            return
        stage = self.stage
        if stage is _GRANTED:
            self._serve(entry)
        elif stage is _SERVED:
            self._leave(entry.station)
        # otherwise cancelled before this stage came due

    def _serve(self, entry: _StationEntry) -> None:
        """The grant: draw the service time and schedule the completion on ``entry``."""
        draw = self.draw
        demand = self.demand if draw is None else draw(self.demand)
        if demand > 0:
            self.stage = _SERVED
            entry._waiter = self
            sim = self.sim
            seq = sim._sequence
            sim._sequence = seq + 1
            heappush(sim._queue, (sim._now + demand, seq, entry))
        else:
            self._leave(entry.station)

    def _leave(self, station: "Resource") -> None:
        """The completion: release the server, then wait out the delay."""
        self.stage = _LEFT
        station._release()
        self._triggered = True
        sim = self.sim
        delay = self.delay
        if delay > 0:
            seq = sim._sequence
            sim._sequence = seq + 1
            heappush(sim._queue, (sim._now + delay, seq, self))
        else:
            _process_now(self)


class Resource:
    """First-come-first-served multi-server station.

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
        self._in_use = 0
        # the deque may contain already-cancelled visits (lazily skipped);
        # _waiting_count is the live number of non-cancelled waiters
        self._waiting: Deque[Visit] = deque()
        self._waiting_count = 0
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
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of (non-cancelled) visits waiting for a server."""
        return self._waiting_count

    # ------------------------------------------------------------------
    def visit(self, demand: float, delay: float,
              draw: Optional[Callable[[float], float]] = None) -> Visit:
        """Queue for a server, hold it, release it, then wait out ``delay``.

        The service time is ``draw(demand)``, a float drawn when the grant
        comes due, or ``demand`` itself without a ``draw``.  With a free
        server and nothing else due now, the grant comes due before this
        call returns, so yield the returned visit at once; the visitor
        resumes when the delay ends.
        """
        if demand < 0 or delay < 0:
            raise ValueError(f"visit demand and delay must be non-negative, got {demand}, {delay}")
        self._accumulate()
        # inline Event.__init__ -- one visit is made per CPU phase
        visit = Visit.__new__(Visit)
        visit.sim = self.sim
        visit.callbacks = None
        visit._value = None
        visit._exception = None
        visit._triggered = False
        visit._processed = False
        visit._waiter = None
        visit.demand = float(demand)
        visit.delay = float(delay)
        visit.draw = draw
        if self._in_use < self.capacity:
            self._grant(visit)
        else:
            visit.stage = _WAITING
            self._waiting.append(visit)
            self._waiting_count += 1
        return visit

    def cancel(self, visit: Visit) -> None:
        """Withdraw ``visit``: leave the queue, or release the server if held.

        A visit that already released its server (it is in its delay, or
        over) is left alone, so cancelling twice is a no-op.
        """
        stage = visit.stage
        if stage is _WAITING:
            # removed lazily; a waiter leaving does not change the busy-time
            # integral, but the _accumulate call stays: it splits that
            # floating-point sum at this instant, and the goldens pin
            # utilisation to the bit
            visit.stage = _LEFT
            self._accumulate()
            self._waiting_count -= 1
        elif stage is _GRANTED or stage is _SERVED:
            visit.stage = _LEFT
            self._release()

    def _release(self) -> None:
        """Free one server and grant the next waiters."""
        self._accumulate()
        self._in_use -= 1
        if self._waiting:
            self._grant_waiters()

    # ------------------------------------------------------------------
    def _grant(self, visit: Visit) -> None:
        visit.stage = _GRANTED
        self._in_use += 1
        entry = _StationEntry()
        entry._processed = False
        entry._waiter = visit
        entry.callbacks = None
        entry.station = self
        sim = self.sim
        queue = sim._queue
        now = sim._now
        if queue and queue[0][0] <= now:
            # another entry is due now: the grant comes due after it
            seq = sim._sequence
            sim._sequence = seq + 1
            heappush(queue, (now, seq, entry))
        else:
            visit._serve(entry)

    def _grant_waiters(self) -> None:
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            visit = waiting.popleft()
            if visit.stage is _LEFT:
                continue  # cancelled while waiting
            self._waiting_count -= 1
            self._grant(visit)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _accumulate(self) -> None:
        now = self.sim._now
        elapsed = now - self._last_change
        if elapsed > 0:
            self._busy_time_integral += elapsed * self._in_use
            self._last_change = now

    def utilisation(self) -> float:
        """Mean fraction of busy servers over the measured window.

        The window runs from construction (or the last
        :meth:`reset_statistics`, the end of warm-up) to now — the same
        span the busy-time integral covers, so the ratio cannot be
        computed against a mismatched window.
        """
        self._accumulate()
        horizon = self.sim.now - self._measured_from
        if horizon <= 0:
            return 0.0
        return self._busy_time_integral / (horizon * self.capacity)

    def reset_statistics(self) -> None:
        """Forget accumulated statistics (used at the end of warm-up)."""
        self._accumulate()
        self._busy_time_integral = 0.0
        self._last_change = self.sim.now
        self._measured_from = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} capacity={self.capacity} "
            f"in_use={self.in_use} queued={self.queue_length}>"
        )
