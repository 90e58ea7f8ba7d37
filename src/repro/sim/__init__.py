"""Discrete-event simulation kernel.

This subpackage is the substrate every other part of the reproduction is
built on.  It provides a small, process-based discrete-event simulation
kernel in the style of SimPy:

* :class:`~repro.sim.engine.Simulator` -- the event loop and clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process` -- the event primitives processes
  yield on.
* :class:`~repro.sim.resources.Resource` -- an FCFS multi-server queue
  (used for the multiprocessor of the transaction processing model).
* :class:`~repro.sim.random_streams.RandomStreams` -- named, independently
  seeded random number streams so experiments are reproducible and
  variance-reduction via common random numbers is possible.
* :mod:`~repro.sim.stats` -- time-weighted and observation statistics,
  batch means and confidence intervals.
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    Simulator,
    Timeout,
)
from repro.sim.random_streams import RandomStreams
from repro.sim.resources import Resource, Store
from repro.sim.stats import (
    BatchMeans,
    ObservationStats,
    TimeWeightedStats,
    confidence_interval,
)
from repro.sim.trace import TrajectoryTracer

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "Simulator",
    "Timeout",
    "RandomStreams",
    "Resource",
    "Store",
    "BatchMeans",
    "ObservationStats",
    "TimeWeightedStats",
    "confidence_interval",
    "TrajectoryTracer",
]
