"""Discrete-event simulation kernel.

This subpackage is the substrate every other part of the reproduction is
built on.  It provides a small, process-based discrete-event simulation
kernel in the style of SimPy, with the four primitives the closed model
needs: timeouts, processes, interrupts and an FCFS multiprocessor.

* :class:`~repro.sim.engine.Simulator` -- the event loop and clock; its
  ``timeout`` and ``process`` factories build the events processes yield
  on.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Process` --
  the event primitives; :meth:`~repro.sim.engine.Process.interrupt` raises
  :class:`~repro.sim.engine.Interrupt` inside a process.
* :class:`~repro.sim.resources.Resource` -- an FCFS multi-server station
  (the multiprocessor of the transaction processing model), used through
  one :meth:`~repro.sim.resources.Resource.visit` per CPU phase.
* :class:`~repro.sim.random_streams.RandomStreams` -- named, independently
  seeded random number streams so experiments are reproducible and
  variance-reduction via common random numbers is possible.
* :mod:`~repro.sim.stats` -- time-weighted and observation statistics and
  streaming quantiles.
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    Process,
    Simulator,
)
from repro.sim.random_streams import RandomStreams
from repro.sim.resources import Resource
from repro.sim.stats import ObservationStats, TimeWeightedStats
from repro.sim.trace import TrajectoryTracer

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "RandomStreams",
    "Resource",
    "ObservationStats",
    "TimeWeightedStats",
    "TrajectoryTracer",
]
