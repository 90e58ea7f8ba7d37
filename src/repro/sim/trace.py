"""The ``trace`` observer: the per-transaction lifecycle log of one run.

The golden-trajectory harness (``tests/golden/``) pins the simulator down
to every submission, admission, shed, commit, abort and departure, with
its exact simulation timestamp; :class:`TrajectoryTracer` collects that
log.  A cell selects it as ``"trace"`` in :attr:`RunSpec.observers
<repro.runner.specs.RunSpec.observers>`, it is built inside whichever
process executes the cell, and the log returns on :attr:`CellResult.trace
<repro.runner.cells.CellResult.trace>` from every executor.  It follows the
observer contract of :mod:`repro.obs.observers` by shape, without
importing :mod:`repro.obs`; ``docs/observability.md`` has the catalog.

Usage::

    result = execute_run_spec(dataclasses.replace(spec, observers=("trace",)))
    result.trace  # [(time, kind, txn_id, detail), ...]
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: one trajectory record: (simulation time, event kind, txn id, detail)
TraceEvent = Tuple[float, str, int, str]

#: lifecycle event kinds recorded by the tracer (each is also the name of
#: the observer hook that records it)
SUBMIT = "submit"
ADMIT = "admit"
COMMIT = "commit"
ABORT = "abort"
DEPART = "depart"
#: open-system runs: an arrival rejected outright by a tenant queue quota
SHED = "shed"


class TrajectoryTracer:
    """Accumulates the per-transaction lifecycle log of one run."""

    __slots__ = ("events",)

    name = "trace"
    hooks = (SUBMIT, ADMIT, SHED, COMMIT, ABORT, DEPART)
    #: the log is not a metric: it lands on CellResult.trace instead
    schema: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def bind(self, system) -> None:
        """Nothing to wire: the system calls the hooks."""

    def reset(self, now: float) -> None:
        """The log spans the whole run, warm-up included."""

    def readout(self, now: float) -> Dict[str, float]:
        """No metrics (see :attr:`schema`)."""
        return {}

    def submit(self, now: float, txn) -> None:
        """Log that ``txn`` was submitted to the gate ``now``."""
        self.events.append((now, SUBMIT, txn.txn_id, ""))

    def admit(self, now: float, txn) -> None:
        """Log that the gate admitted ``txn`` ``now``."""
        self.events.append((now, ADMIT, txn.txn_id, ""))

    def shed(self, now: float, txn) -> None:
        """Log that a tenant queue quota shed ``txn`` ``now``; the detail is its tenant."""
        self.events.append((now, SHED, txn.txn_id, txn.tenant))

    def commit(self, now: float, txn) -> None:
        """Log that ``txn`` committed ``now``."""
        self.events.append((now, COMMIT, txn.txn_id, ""))

    def abort(self, now: float, txn, reason) -> None:
        """Log that an execution of ``txn`` aborted ``now``; the detail is the reason's name."""
        self.events.append((now, ABORT, txn.txn_id, reason.name))

    def depart(self, now: float, txn, outcome: str) -> None:
        """Log that ``txn`` left the system ``now``; the detail is its outcome."""
        self.events.append((now, DEPART, txn.txn_id, outcome))
