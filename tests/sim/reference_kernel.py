"""A plain reference kernel that states the engine's scheduling contract.

``repro.sim.engine`` and ``repro.sim.resources`` trade clarity for speed: a
waiter slot next to a lazily allocated callback list, pre-built wake-up
events, and a station that keeps heaps of free and finish times and folds
its busy-time sum incrementally.  This module implements the same contract
with none of that, in the style of a textbook heapq simulator: one heap of
``(time, sequence, callback)`` entries, one consumer list per event, and a
station that keeps a plain list of its visits, times all of them again
from scratch whenever one is made or cancelled, and sums its busy time
afresh at every read.  ``test_kernel_differential.py`` runs random scripts
on both kernels and requires the same event log.

The rules, numbered as in the engine's module docstring:

1. Equal times run in scheduling order.  The sequence number is taken when
   an event is scheduled.
2. ``timeout(d)`` is scheduled when it is created, for now + d.  ``succeed``
   and ``fail`` schedule the event for now.
3. Creating a process schedules one start-up wake-up for now.
4. An event's consumers run in registration order.  A consumer removed
   before its turn does not run.  A consumer registered on an already
   processed event runs at once, with no heap entry.
5. ``interrupt()`` detaches the process from its target at once and
   schedules a wake-up for now that throws ``Interrupt``.  If the process
   has registered on a newer target by the time that wake-up runs, it is
   detached from that target too.  A wake-up for a finished process is
   dropped.
6. A returning process schedules its completion event for now.
7. A resource serves visits FCFS and computes each one when it is made:
   the service time is drawn then, the visit starts at max(now, the
   earliest time a server is free), releases its server at start +
   service, and is scheduled once, for that release + its delay, numbered
   when made.  A server is held over [start, release): at its release
   instant a visit no longer counts.  Cancelling a visit that has not
   released its server takes its entry off the queue; if the visit had
   not started (its start is now or later) its variate passes down the
   waiting drawing visits behind it and the last one's returns to the
   reader, and the visits behind it that have not started are timed
   again, keeping their numbers.  Cancelling during the delay, or after,
   changes nothing.  The busy-time sum is split at every arrival, release,
   cancel and ``utilisation()`` read, and summed in time order.
"""

import heapq


class SimulationError(RuntimeError):
    """A misuse of the kernel."""


class Interrupt(Exception):
    """Thrown into an interrupted process; ``cause`` says why."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Simulator:
    """The clock and the heap of scheduled callbacks."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._sequence = 0

    def schedule(self, delay, callback):
        """Run ``callback()`` at now + ``delay`` (rule 1: numbered now)."""
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        """Run ``callback()`` at ``time`` (rule 1: numbered now)."""
        heapq.heappush(self._queue, (time, self._sequence, callback))
        self._sequence += 1

    def timeout(self, delay, value=None):
        """An event scheduled at creation for now + ``delay`` (rule 2)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(self)
        event._trigger(value, None, delay)
        return event

    def process(self, generator):
        """Start a process from ``generator``."""
        return Process(self, generator)

    def run(self, until):
        """Run every callback scheduled up to ``until``, then stop there."""
        while self._queue and self._queue[0][0] <= until:
            self.now, _sequence, callback = heapq.heappop(self._queue)
            callback()
        self.now = until


class Event:
    """A one-shot event with a plain list of consumers."""

    def __init__(self, sim):
        self.sim = sim
        self.consumers = []
        self.triggered = False
        self.processed = False
        self.ok = None
        self.value = None
        self.exception = None

    def succeed(self, value=None):
        """Trigger with ``value``, scheduled for now (rule 2)."""
        self._trigger(value, None, 0.0)
        return self

    def fail(self, exception):
        """Trigger with ``exception``, scheduled for now (rule 2)."""
        self._trigger(None, exception, 0.0)
        return self

    def _trigger(self, value, exception, delay):
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self.triggered = True
        self.ok = exception is None
        self.value = value
        self.exception = exception
        self.sim.schedule(delay, self._process)

    def _process(self):
        # rule 4: a consumer removed from the list before its turn never runs
        self.processed = True
        while self.consumers:
            self.consumers.pop(0)(self)

    def add_callback(self, consumer):
        """Register ``consumer``; on a processed event it runs at once (rule 4)."""
        if self.processed:
            consumer(self)
        else:
            self.consumers.append(consumer)

    def remove_callback(self, consumer):
        """Unregister ``consumer`` if it is still waiting."""
        if consumer in self.consumers:
            self.consumers.remove(consumer)


class Process(Event):
    """A generator driven by the events it yields; an event itself."""

    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator = generator
        self.target = None
        sim.schedule(0.0, lambda: self._step(None, None))  # rule 3

    @property
    def is_alive(self):
        """True until the generator has finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Detach now and throw ``Interrupt(cause)`` at a wake-up for now (rule 5)."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._detach()
        self.sim.schedule(0.0, lambda: self._interrupted(cause))

    def _interrupted(self, cause):
        if self.triggered:
            return  # rule 5: a wake-up for a finished process is dropped
        self._detach()  # rule 5: a target registered since the interrupt
        self._step(None, Interrupt(cause))

    def _detach(self):
        if self.target is not None:
            self.target.remove_callback(self._resume)
            self.target = None

    def _resume(self, event):
        self.target = None
        self._step(event.value, event.exception)

    def _step(self, value, exception):
        try:
            if exception is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)  # rule 6
            return
        except Interrupt as unhandled:
            self.fail(unhandled)
            return
        except BaseException as error:
            self.fail(error)
            raise
        if not isinstance(target, Event) or target.sim is not self.sim:
            self.generator.close()
            error = SimulationError(f"process yielded {target!r}")
            self.fail(error)
            raise error
        self.target = target
        target.add_callback(self._resume)


class Visit(Event):
    """A pass through a :class:`Resource`: a server from ``start`` to ``finish``, then the delay (rule 7)."""

    def __init__(self, resource, demand, delay, draws):
        super().__init__(resource.sim)
        self.resource = resource
        self.made = resource.sim.now
        self.demand = demand
        self.delay = delay
        self.draws = draws
        self.variate = None
        self.start = None
        #: when the server is released: start + service, or the cancel
        self.finish = None
        #: cancelled while it held its server, which it freed then
        self.cut = False


class Resource:
    """``capacity`` servers serving visits in the order they are made (rule 7)."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.opened = sim.now
        #: every visit made, in order, but those cancelled before they started
        self.visits = []
        #: instants the busy-time sum is split at, besides the releases
        self.splits = [sim.now]
        self.since = sim.now

    @property
    def in_use(self):
        """Servers held: visits that started and have not released."""
        now = self.sim.now
        return sum(1 for visit in self.visits if visit.start <= now < visit.finish)

    @property
    def queue_length(self):
        """Visits waiting: made, not yet started."""
        return sum(1 for visit in self.visits if visit.start > self.sim.now)

    def visit(self, demand, delay, draws=None):
        """A visit: a server for ``demand`` times a variate of ``draws`` (or ``demand``), then ``delay``."""
        if demand < 0 or delay < 0:
            raise ValueError(f"negative demand or delay {demand}, {delay}")
        self.splits.append(self.sim.now)
        visit = Visit(self, demand, delay, draws)
        if draws is not None and demand > 0:
            visit.variate = draws.standard()
        self.visits.append(visit)
        self._plan()
        visit.triggered = True
        visit.ok = True
        self.sim.schedule_at(visit.finish + visit.delay, visit._process)
        return visit

    def cancel(self, visit):
        """Withdraw ``visit`` (rule 7)."""
        now = self.sim.now
        if visit not in self.visits or visit.finish <= now:
            return  # cancelled already, or released: in the delay, or over
        self.splits.append(now)
        if visit.start >= now:
            # never started: the variates move up one drawing visit, and
            # the last one goes back to the reader
            behind = self.visits[self.visits.index(visit) + 1:]
            chain = [visit] + [later for later in behind if later.variate is not None]
            if visit.variate is not None:
                variates = [each.variate for each in chain]
                for later, variate in zip(chain[1:], variates):
                    later.variate = variate
                chain[-1].draws.put_back(variates[-1])
            self.visits.remove(visit)
        else:
            visit.cut = True
            visit.finish = now
        visit.triggered = False
        self._plan()
        queue = []
        for time, sequence, callback in self.sim._queue:
            owner = getattr(callback, "__self__", None)
            if owner is visit:
                continue
            if isinstance(owner, Visit) and owner.resource is self:
                time = owner.finish + owner.delay
            queue.append((time, sequence, callback))
        heapq.heapify(queue)
        self.sim._queue = queue

    def _plan(self):
        """Time every visit again, in the order made: each takes the server that is free first."""
        free = [self.opened] * self.capacity
        for visit in self.visits:
            server = free.index(min(free))
            visit.start = max(visit.made, free[server])
            if not visit.cut:
                service = visit.demand if visit.variate is None else visit.demand * visit.variate
                visit.finish = visit.start + service
            free[server] = visit.finish

    def utilisation(self):
        """Busy time over capacity × time since construction or the last reset."""
        now = self.sim.now
        self.splits.append(now)
        if now - self.since <= 0:
            return 0.0
        releases = [visit.finish for visit in self.visits]
        points = sorted({point for point in self.splits + releases if self.since <= point <= now})
        busy = 0.0
        for begin, end in zip(points, points[1:]):
            held = sum(1 for visit in self.visits if visit.start <= begin < visit.finish)
            busy += (end - begin) * held
        return busy / ((now - self.since) * self.capacity)

    def reset_statistics(self):
        """Measure from now on."""
        self.since = self.sim.now
        self.splits.append(self.since)
