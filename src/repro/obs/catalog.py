"""The catalog of named observers, and the set of them one run holds.

A cell names its observers in :attr:`~repro.runner.specs.RunSpec.observers`;
whichever process executes it builds them into one :class:`ObserverSet`,
binds that to the system's single observer slot, and reads it out into the
:class:`~repro.runner.cells.CellResult`: the ``trace`` log into ``trace``,
every other readout into the metrics, whose schema is the union of the
observers' declared schemas.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Sequence, Tuple

from repro.obs.observers import AbortsByReason, Isolation
from repro.obs.probes import PROBES
from repro.sim.trace import TraceEvent, TrajectoryTracer

#: the lifecycle hooks an observer may subscribe to (see repro.obs.observers)
HOOKS = ("submit", "admit", "shed", "lock_wait", "commit", "abort", "depart", "sample")

TRACE = TrajectoryTracer.name
ABORTS_BY_REASON = AbortsByReason.name
ISOLATION = Isolation.name

#: observer name -> class, in catalog order (the order selections are normalised to)
CATALOG = {observer.name: observer
           for observer in (TrajectoryTracer, *PROBES, AbortsByReason, Isolation)}
OBSERVER_NAMES: Tuple[str, ...] = tuple(CATALOG)


def validate_observers(names: Iterable[str], stationary: bool = True) -> Tuple[str, ...]:
    """Normalise a selection to catalog order (it is a set), validating it.

    Raises ``ValueError`` for an unknown or duplicate name, or, with
    ``stationary=False``, any observer but ``trace``.
    """
    selected = tuple(names)
    for name in selected:
        if name not in CATALOG:
            raise ValueError(f"unknown observer {name!r}; available: {', '.join(OBSERVER_NAMES)}")
        if not stationary and name != TRACE:
            raise ValueError(f"observer {name!r} is supported for stationary runs only")
    if len(set(selected)) != len(selected):
        raise ValueError(f"duplicate observer in {selected!r}")
    return tuple(name for name in OBSERVER_NAMES if name in selected)


def metric_schema(names: Iterable[str]) -> Tuple[str, ...]:
    """The metric keys a selection reports: the union of its observers' schemas."""
    return tuple(key for name in validate_observers(names) for key in CATALOG[name].schema)


def _fan_out(targets):
    if len(targets) == 1:
        return targets[0]

    def hook(*event):
        for target in targets:
            target(*event)
    return hook


class ObserverSet:
    """The observers of one run, behind the transaction system's single slot.

    Each hook of :data:`HOOKS` is an attribute that calls the observers
    subscribed to it: the one observer's own method when exactly one
    subscribes.  ``interval`` is the period of the gauge sampler, which the
    system starts only when :attr:`samples`.  A set binds to one system;
    an empty set is falsy, and the system's slot then stays ``None``.
    """

    def __init__(self, names: Iterable[str], interval: float = 2.0):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.system = None
        self.observers = tuple(CATALOG[name]() for name in validate_observers(names))
        for name in HOOKS:
            setattr(self, name, _fan_out(tuple(
                getattr(observer, name) for observer in self.observers if name in observer.hooks)))
        self.samples = any("sample" in observer.hooks for observer in self.observers)

    def __len__(self) -> int:
        return len(self.observers)

    def bind(self, system) -> None:
        """Attach every observer to ``system`` (called once, by its constructor)."""
        if self.system is not None:
            raise RuntimeError("an ObserverSet can observe only one system")
        self.system = system
        for observer in self.observers:
            observer.bind(system)

    def reset(self, now: float) -> None:
        """Restart every observer's measured window at ``now``."""
        for observer in self.observers:
            observer.reset(now)

    def readout(self, now: float) -> Dict[str, float]:
        """Every observer's metrics, merged: exactly :func:`metric_schema`'s keys."""
        if self.observers and self.system is None:
            raise RuntimeError("this ObserverSet is not bound to a system")
        metrics: Dict[str, float] = {}
        for observer in self.observers:
            metrics.update(observer.readout(now))
        return metrics

    @property
    def trace(self) -> Sequence[TraceEvent]:
        """The ``trace`` observer's event log (empty when not tracing)."""
        return next((observer.events for observer in self.observers if observer.name == TRACE), ())

    def sampler(self, sim) -> Generator:
        """The gauge-sampling simulation process: ``sample`` every interval."""
        while True:
            yield sim.timeout(self.interval)
            self.sample(sim.now)
