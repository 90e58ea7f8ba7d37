"""Queueing resources for the simulation kernel.

:class:`Resource` is an FCFS multi-server station.  The transaction
processing model uses one instance with capacity ``m`` for the homogeneous
multiprocessor ("m CPUs serving a shared queue").

It follows the request/release protocol: ``request()`` returns an event that
succeeds once a server is granted; the holder must later call
``release(request)``.  Requests may be cancelled before they are granted,
which is how interrupted transactions withdraw from queues without leaking
capacity.

Grant contract (rule 7 of :mod:`repro.sim.engine`): a request is granted
when made if a server is free, and its grant is scheduled then; otherwise
it queues.  A release grants queued requests in order while servers are
free, and schedules each grant at the release.  Cancelling a queued request
removes it; cancelling a held one releases it.

Hot-path design: every grant and release is O(1).  Held slots are a plain
counter (a request knows whether it holds the resource via its ``granted``
flag), and cancelling a waiting request marks it and adjusts the live queue
count instead of scanning the deque -- cancelled entries are skipped lazily
when they reach the head.  Grant order is unchanged by this: strict FCFS
among non-cancelled requests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Event, SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "granted", "cancelled")

    def __init__(self, resource: "Resource"):
        # inline Event.__init__ -- requests are created once per CPU phase
        self.sim = resource.sim
        self.callbacks = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._waiter = None
        self.resource = resource
        self.granted = False
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw the request.

        If it was already granted the slot is released; if it is still
        waiting it is marked cancelled and skipped when it reaches the head
        of the queue.  Cancelling twice is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.granted:
            self.resource.release(self)
        elif not self._triggered:
            # still waiting (a granted-then-released request is triggered and
            # needs no queue accounting)
            self.resource._drop_waiting(self)


class Resource:
    """First-come-first-served multi-server resource.

    ``capacity`` servers are available; requests beyond the capacity wait in
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
        # the deque may contain already-cancelled requests (lazily skipped);
        # _waiting_count is the live number of non-cancelled waiters
        self._waiting: Deque[Request] = deque()
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
        """Number of (non-cancelled) requests waiting for a server."""
        return self._waiting_count

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Claim a server; the returned event succeeds once granted."""
        self._accumulate()
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
            self._waiting_count += 1
        return req

    def release(self, req: Request) -> None:
        """Return the server held by ``req`` and grant the next waiter."""
        if req.resource is not self or not req.granted:
            raise SimulationError(
                f"release of a request that does not hold {self.name!r} "
                "(double release or foreign request)"
            )
        self._accumulate()
        req.granted = False
        self._in_use -= 1
        self._grant_waiters()

    def _drop_waiting(self, req: Request) -> None:
        """Account for a cancelled waiting request (removed lazily).

        A waiter leaving does not change the busy-time integral, but the
        ``_accumulate`` call stays: it splits that floating-point sum at
        this instant, and the goldens pin ``utilisation`` to the bit.
        """
        self._accumulate()
        self._waiting_count -= 1

    # ------------------------------------------------------------------
    def _grant(self, req: Request) -> None:
        req.granted = True
        self._in_use += 1
        req.succeed(req)

    def _grant_waiters(self) -> None:
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            req = waiting.popleft()
            if req.cancelled:
                continue
            self._waiting_count -= 1
            self._grant(req)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _accumulate(self) -> None:
        now = self.sim.now
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

