"""A plain reference kernel that states the engine's scheduling contract.

``repro.sim.engine`` and ``repro.sim.resources`` trade clarity for speed: a
waiter slot next to a lazily allocated callback list, pre-built wake-up
events, a station visit that runs its own stages, and cancelled visits
skipped lazily at the queue head.  This module implements the same
contract with none of that, in the style of a textbook heapq simulator: one
heap of ``(time, sequence, callback)`` entries, one consumer list per
event, plain ``users`` and ``queue`` lists per resource, and a visit built
from the kernel's own request, timeout and release.
``test_kernel_differential.py`` runs random scripts on both kernels and
requires the same event log.

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
7. A resource grants visits FCFS.  A visit's request is granted when made
   if a server is free; otherwise it queues.  A release grants queued
   requests in order while servers are free.  A grant made while no entry
   is due now is processed at once, in the call that made it; otherwise it
   is scheduled for now.  A grant draws the service time and schedules a
   timeout for it; a zero service time completes at once.  The completion
   releases the server and schedules the visit for now + its delay; a zero
   delay ends the visit at once.  A scheduled grant, or a completion, that
   comes due while nothing waits on the visit does nothing.  Cancelling a
   queued visit removes its request; cancelling a granted or served one
   releases the server and abandons its grant or timeout.  Since a grant
   may draw before ``visit()`` returns, a visitor yields its visit as soon
   as it makes it.
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
        heapq.heappush(self._queue, (self.now + delay, self._sequence, callback))
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


class Request(Event):
    """A claim on one server of a :class:`Resource`, made by a :class:`Visit`."""

    def __init__(self, resource):
        super().__init__(resource.sim)
        self.resource = resource
        self.at_once = False

    def grant_at_once(self):
        """Trigger and process the grant now, with no heap entry (rule 7)."""
        self.triggered = True
        self.ok = True
        self.value = self
        self.at_once = True
        self._process()

    def cancel(self):
        """Leave the queue, or release the server if held (rule 7)."""
        resource = self.resource
        if self in resource.queue:
            resource.queue.remove(self)
        elif self in resource.users:
            resource.release(self)


class Visit(Event):
    """A pass through a :class:`Resource`: request, timeout, release, delay (rule 7)."""

    def __init__(self, resource, demand, delay, draw):
        super().__init__(resource.sim)
        self.resource = resource
        self.demand = demand
        self.delay = delay
        self.draw = draw
        self.hold = None
        self.request = Request(resource)
        self.request.add_callback(self._granted)
        resource.submit(self.request)

    def _granted(self, request):
        if not request.at_once and not self.consumers:
            return  # the visitor was interrupted: its cancel releases the server
        demand = self.demand if self.draw is None else self.draw(self.demand)
        if demand > 0:
            self.hold = self.sim.timeout(demand)
            self.hold.add_callback(self._served)
        else:
            self._leave()

    def _served(self, _hold):
        if not self.consumers:
            return  # the visitor was interrupted: its cancel releases the server
        self._leave()

    def _leave(self):
        self.hold = None
        self.resource.release(self.request)
        self.request = None
        if self.delay > 0:
            self._trigger(None, None, self.delay)
        else:
            # a zero delay ends the visit in the call that released it
            self.triggered = True
            self.ok = True
            self._process()

    def cancel(self):
        """Leave the queue, or release the server if held (rule 7)."""
        if self.request is None:
            return  # released already: in the delay, or over
        if self.hold is not None:
            self.hold.remove_callback(self._served)
            self.hold = None
        self.request.remove_callback(self._granted)
        self.request.cancel()
        self.request = None


class Resource:
    """``capacity`` servers granted in request order (rule 7)."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.users = []
        self.queue = []

    @property
    def in_use(self):
        """Servers held."""
        return len(self.users)

    @property
    def queue_length(self):
        """Requests waiting."""
        return len(self.queue)

    def visit(self, demand, delay, draw=None):
        """A visit: hold a server for ``draw(demand)`` (or ``demand``), then wait ``delay``."""
        if demand < 0 or delay < 0:
            raise ValueError(f"negative demand or delay {demand}, {delay}")
        return Visit(self, demand, delay, draw)

    def cancel(self, visit):
        """Withdraw ``visit`` (rule 7)."""
        visit.cancel()

    def submit(self, request):
        """Grant ``request`` if a server is free, else queue it."""
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def release(self, request):
        """Free ``request``'s server and grant queued requests in order."""
        self.users.remove(request)
        while self.queue and len(self.users) < self.capacity:
            self._grant(self.queue.pop(0))

    def _grant(self, request):
        self.users.append(request)
        queue = self.sim._queue
        if queue and queue[0][0] <= self.sim.now:
            request.succeed(request)  # due after the entries already due now
        else:
            request.grant_at_once()
