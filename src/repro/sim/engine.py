"""Process-based discrete-event simulation engine.

The engine follows the classic event/process design used by SimPy:

* A :class:`Simulator` owns the clock and a priority queue of scheduled
  events.
* An :class:`Event` is a one-shot object that is *triggered* (succeeded or
  failed) and later *processed*, at which point its consumers (a waiting
  process and callbacks) run.
* A :class:`Process` wraps a generator.  The generator yields events; the
  process resumes when the yielded event is processed.  The value of the
  event is sent into the generator (or, for failed events, the exception is
  thrown into it).
* Processes can be interrupted from the outside with
  :meth:`Process.interrupt`, which raises :class:`Interrupt` inside the
  generator at the current simulation time.  This is how the transaction
  model implements displacement (aborting an active transaction).

The engine provides exactly what the closed transaction processing model of
the paper needs: timeouts, processes, interrupts and (in
:mod:`repro.sim.resources`) an FCFS multiprocessor that serves station
visits.

Scheduling contract.  ``tests/sim/reference_kernel.py`` states these rules
as plain code, and ``tests/sim/test_kernel_differential.py`` requires this
engine to produce the same event log as that reference on random scripts:

1. Equal times run in scheduling order.  The sequence number is taken when
   an event is scheduled.
2. ``timeout(d)`` is scheduled when it is created, for now + d.
   ``succeed`` and ``fail`` schedule the event for now.
3. Creating a process schedules one start-up wake-up for now.
4. An event's consumers run in registration order.  A consumer removed
   before its turn does not run.  A consumer registered on an already
   processed event runs at once, with no heap entry.
5. ``interrupt()`` detaches the process from its target at once and
   schedules a wake-up for now that throws :class:`Interrupt`.  If the
   process has registered on a newer target by the time that wake-up runs,
   it is detached from that target too.  A wake-up for a finished process
   is dropped.
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
   changes nothing (see :mod:`repro.sim.resources`).

An exception other than :class:`Interrupt` escaping a process fails the
process's completion event and then propagates out of :meth:`Simulator.run`.
An unhandled :class:`Interrupt` fails the process without propagating.

Hot-path design (the engine dominates experiment cell runtime, so the
common paths are aggressively slimmed; the golden-trajectory harness under
``tests/golden/`` pins the resulting behavior bit for bit):

* **Direct process resume.**  In the overwhelmingly common case exactly one
  process waits on an event (``yield sim.timeout(...)``, ``yield child``).
  That process is stored in the event's ``_waiter`` slot and resumed
  directly when the event is processed — no callback list is allocated, no
  indirection through bound methods.  The slot is used only by a consumer
  that registers first, so the waiter followed by the callback list is
  registration order.
* **One heap entry per CPU phase.**  A station visit
  (:mod:`repro.sim.resources`) is an event scheduled for its end when it
  is made; the station runs nothing between a visit's arrival and its end.
* **No object refers to itself.**  A process registers as a callback with
  a bound method made when needed, not one stored on itself, and no event
  carries itself as its value.  So a finished run's objects are freed by
  reference counting alone once its processes are closed
  (:meth:`Process.close`) and its queue is cleared
  (:meth:`Simulator.clear`), without waiting for the cycle collector.
* **Lazy callback lists.**  ``Event.callbacks`` is ``None`` until the first
  callback is registered (and ``None`` again once processed), so the two
  dominant event kinds — timeouts and station visits — never allocate a
  list.
* **Slim heap entries with an explicit tie-break.**  The pending queue
  holds ``(time, sequence, event)`` triples.  ``sequence`` is the monotonic
  counter of rule 1; it also guarantees the heap never compares two
  :class:`Event` objects.
* **Fast-path construction.**  :meth:`Simulator.timeout` initialises the
  event's fields directly and schedules it without the generic ``succeed``
  machinery, and process start-up/interrupt wake-ups use pre-triggered
  internal events built without redundant state checks.
* **Inlined run loop.**  :meth:`Simulator.run` processes events with local
  variable bindings instead of per-event method dispatch.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt` and usually explains why the process was
    interrupted (e.g. a displacement decision by the load controller).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event has three observable states:

    * *pending* -- created but not yet triggered;
    * *triggered* -- a value (or exception) has been set and the event has
      been scheduled on the simulator's queue;
    * *processed* -- the simulator has popped the event and executed its
      consumers.

    Callbacks are callables of one argument (the event itself).  They run in
    the order they were appended.  ``callbacks`` is ``None`` while no
    callback is registered and again after the event has been processed; a
    process waiting on the event is held in the separate ``_waiter`` slot
    (see the module docstring) and runs in its registration position.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered",
                 "_processed", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._waiter: Optional["Process"] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event queue."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value of the event.

        Raises the failure exception if the event failed, and
        :class:`SimulationError` if the event has not been triggered yet.
        """
        if not self._triggered:
            raise SimulationError("event value read before the event was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None`` if the event succeeded."""
        return self._exception

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._value = value
        self._triggered = True
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (sim._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception instance, got {exception!r}")
        self._exception = exception
        self._triggered = True
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (sim._now, seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (still at the current simulation time).
        """
        if self._processed:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        if self.callbacks and callback in self.callbacks:
            self.callbacks.remove(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event: it is triggered when the generator
    terminates (the generator's return value becomes the event value) and it
    can therefore be waited on by other processes (``yield some_process``).
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process expects a generator (did you forget to call the "
                f"process function?), got {generator!r}"
            )
        # inline Event.__init__ -- one process is created per arriving
        # session in open runs, so the extra constructor frame is measurable
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._waiter = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Kick the process off at the current time with a pre-triggered
        # internal event carrying this process as its direct waiter.
        sim._schedule_wakeup(self, None)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a process that has already finished is an error; callers
        should check :attr:`is_alive` first.  The event the process is
        currently waiting on is abandoned (it no longer resumes this
        process).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        self._detach()
        self.sim._schedule_wakeup(self, Interrupt(cause))

    def close(self) -> None:
        """Stop the process for good: detach it from its target, close its generator.

        For the end of a run: the generator's frame is released, so the
        objects it referred to no longer form a cycle through the process.
        Closing runs the generator's ``finally`` blocks, which may schedule
        events; clear the queue afterwards (:meth:`Simulator.clear`).
        """
        self._detach()
        self.generator.close()

    def _detach(self) -> None:
        """Stop waiting on the current target, if any."""
        target = self._target
        if target is not None:
            if target._waiter is self:
                target._waiter = None
            else:
                target.remove_callback(self._resume)
            self._target = None

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        try:
            if event._exception is None:
                self._target = None
                next_target = self.generator.send(event._value)
            else:
                if self._target is not event:
                    # an interrupt wake-up that ran after the process had
                    # registered on a newer target: abandon that one too
                    self._detach()
                self._target = None
                next_target = self.generator.throw(event._exception)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            # The process chose not to handle an interrupt (or the wake-up
            # was for a finished process, whose generator re-raises it).
            if not self._triggered:
                self.fail(unhandled)
            return
        except BaseException as exc:
            if not self._triggered:
                self.fail(exc)
            raise

        sim = self.sim
        if isinstance(next_target, Event) and next_target.sim is sim:
            self._target = next_target
            if next_target._processed:
                # same semantics as registering a callback on a processed
                # event: resume immediately at the current time
                self._resume(next_target)
            elif next_target._waiter is None and next_target.callbacks is None:
                # common case: sole consumer -- direct resume, no list
                next_target._waiter = self
            elif next_target.callbacks is None:
                next_target.callbacks = [self._resume]
            else:
                next_target.callbacks.append(self._resume)
            return

        if isinstance(next_target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded an event bound to a different simulator"
            )
        else:
            error = SimulationError(
                f"process {self.name!r} yielded {next_target!r}; processes must yield Event objects"
            )
        self.generator.close()
        self.fail(error)
        raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "alive"
        return f"<Process {self.name!r} {state} at t={self.sim.now:.6g}>"


class Simulator:
    """The discrete-event simulation executive.

    Responsibilities:

    * maintain the simulation clock (:attr:`now`), starting at zero;
    * maintain the pending-event queue ordered by ``(time, sequence)``;
    * run events, their waiting processes and their callbacks in the order
      of the module docstring's scheduling contract;
    * provide factory helpers (:meth:`timeout`, :meth:`process`) so user
      code never touches the queue directly.

    The executive is single-threaded and deterministic: two runs with the
    same seeds produce identical traces.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Event:
        """Create an event that fires ``delay`` time units from now.

        This is the hottest allocation in the engine, so the fields are set
        inline and the event is scheduled without the ``succeed`` checks (a
        fresh event cannot have been triggered before).
        """
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        event = Event.__new__(Event)
        event.sim = self
        event.callbacks = None
        event._value = value
        event._exception = None
        event._triggered = True
        event._processed = False
        event._waiter = None
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._queue, (self._now + float(delay), seq, event))
        return event

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # scheduling / running
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every pending event: the run is over.

        Pending events hold their waiting processes; clearing the queue
        after the processes are closed (:meth:`Process.close`) leaves the
        run nothing that refers back to itself.
        """
        self._queue.clear()

    def _schedule_wakeup(self, process: Process, exception: Optional[BaseException]) -> None:
        """Schedule an internal pre-triggered event that resumes ``process`` now.

        Used for process start-up (``exception=None`` sends ``None`` into
        the generator) and interrupts (the exception is thrown into it).
        The event is built directly -- it is internal, already triggered,
        and its sole consumer is the process itself.
        """
        wakeup = Event.__new__(Event)
        wakeup.sim = self
        wakeup.callbacks = None
        wakeup._value = None
        wakeup._exception = exception
        wakeup._triggered = True
        wakeup._processed = False
        wakeup._waiter = process
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._queue, (self._now, seq, wakeup))

    def run(self, until: float) -> float:
        """Run the simulation until ``until`` and return that time.

        The clock is advanced to exactly ``until`` even if no event is
        scheduled there; events scheduled later stay queued for the next
        call.
        """
        until = float(until)
        if until < self._now:
            raise ValueError(f"until={until} lies in the past (now={self._now})")
        queue = self._queue
        pop = heappop
        now = self._now
        while queue:
            entry = pop(queue)
            time = entry[0]
            if time > until:
                heappush(queue, entry)
                break
            if time > now:
                self._now = now = time
            elif time < now - 1e-12:
                raise SimulationError("event scheduled in the past; queue corrupted")
            event = entry[2]
            event._processed = True
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                waiter._resume(event)
            callbacks = event.callbacks
            if callbacks is not None:
                # the live list (rule 4): a consumer interrupted by an
                # earlier one is removed from it before its turn, and none
                # is appended, since add_callback on a processed event runs
                # the callback at once
                for callback in callbacks:
                    callback(event)
                event.callbacks = None
        self._now = until
        return until
