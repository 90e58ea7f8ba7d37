"""Selecting the executor that runs a sweep's cells.

Every executor shares one tiny interface: :meth:`map` applies a function
to an iterable of items and *streams* the results back in the items'
order (so a sweep's results arrive in deterministic cell order regardless
of which worker finishes first), and :meth:`execute` collects them into a
list.

``make_executor`` selects the implementation from a ``workers`` count the
way the experiment entry points expose it:

* ``workers=0`` or ``1`` — run in-process (no pickling requirements, exact
  same code path the tests exercise);
* ``workers=N>1`` — start a
  :class:`~repro.dist.coordinator.DistributedExecutor` with
  ``local_workers=N``: a coordinator plus ``N`` ``repro.dist.worker``
  subprocesses on localhost;
* ``workers=None`` — one worker per available CPU.

The dist wire protocol is the only way a cell leaves the calling process,
so a fanned-out function must be importable by module path in a fresh
interpreter; every sweep maps :func:`~repro.runner.cells.execute_run_spec`.
Cells reach workers on other hosts, or a sweep service, through a ready
executor instead: ``run_sweep(..., executor=DistributedExecutor(address))``
or ``executor=ServiceExecutor(address)``.

Because each cell seeds its own random streams from its spec (seed,
replicate), results are bitwise identical between the serial and the
distributed executor.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.obs import telemetry

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def timed_execute(executor, kind: str,
                  stream: Iterable[ResultT]) -> List[ResultT]:
    """Collect a lazy result ``stream``, in a ``sweep`` span when telemetered.

    ``stream`` is ``executor.map(...)`` or a stream built on it (a service
    job's), and only collecting it is timed — a lazy :meth:`map` generator
    has no well-defined end to time.  Without an active sink no clock is
    read.
    """
    if telemetry.active_sink() is None:
        return list(stream)
    started = time.monotonic()
    results = list(stream)
    telemetry.emit(
        "sweep",
        executor=kind,
        workers=executor.workers,
        cells=len(results),
        duration=time.monotonic() - started,
    )
    return results


class SerialExecutor:
    """Run every cell in the current process, in order."""

    workers = 0

    def map(self, function: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> Iterator[ResultT]:
        """Lazily apply ``function`` to ``items`` in order."""
        return (function(item) for item in items)

    def execute(self, function: Callable[[ItemT], ResultT],
                items: Iterable[ItemT]) -> List[ResultT]:
        """Apply ``function`` to every item and return the ordered results."""
        return timed_execute(self, "serial", self.map(function, items))

    def close(self) -> None:
        """Nothing to release; every executor ``make_executor`` returns closes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def make_executor(workers: Optional[int] = 0):
    """Select an executor from a ``workers`` count (see module docstring).

    Whoever makes an executor closes it: ``close()`` on a distributed one
    shuts its coordinator down and reaps its worker processes.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers <= 1:
        return SerialExecutor()
    # imported lazily: repro.dist depends on repro.runner, not vice versa
    from repro.dist.coordinator import DistributedExecutor

    return DistributedExecutor(local_workers=workers, heartbeat_timeout=10.0,
                               worker_timeout=120.0)
