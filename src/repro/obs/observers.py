"""The observer contract, and the two diagnostics observers.

An observer watches one :class:`~repro.tp.system.TransactionSystem` from
the inside, through the :class:`~repro.obs.catalog.ObserverSet` the system
holds in its single observer slot.  Every observer has

* a catalog ``name``, the metric keys its readout reports (``schema``,
  fixed per class) and the lifecycle ``hooks`` it subscribes to, a subset
  of :data:`~repro.obs.catalog.HOOKS`;
* ``bind(system)``, called once when the system is built, ``reset(now)``
  at the end of warm-up and ``readout(now)`` at the end of the measured
  window, which returns exactly ``schema``, zeros included;
* one method per subscribed hook: ``submit(now, txn)``, ``admit(now, txn)``,
  ``shed(now, txn)``, ``lock_wait(now, txn, waited)``, ``commit(now, txn)``,
  ``abort(now, txn, reason)``, ``depart(now, txn, outcome)`` and
  ``sample(now)``, called by the gauge sampler every interval.

Observers draw no random numbers and mutate no model state (``isolation``
only wraps the CC scheme in a recorder that passes every call through), so
an observed cell commits and aborts exactly what the unobserved cell does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cc.base import AbortReason
from repro.cc.history import ANOMALY_KINDS, HistoryRecorder, RecordingConcurrencyControl, anomaly_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tp.system import TransactionSystem


class Observer:
    """Base of the built-in observers: no hooks, no metrics, nothing to reset."""

    name = ""
    hooks: Tuple[str, ...] = ()
    schema: Tuple[str, ...] = ()
    system: Optional["TransactionSystem"] = None

    def bind(self, system: "TransactionSystem") -> None:
        """Attach to the system whose trajectory this observer watches."""
        self.system = system

    def reset(self, now: float) -> None:
        """Restart the measured window at ``now`` (the end of warm-up)."""

    def readout(self, now: float) -> Dict[str, float]:
        """The metrics of the window ending at ``now``, keyed as :attr:`schema`."""
        return {}


class AbortsByReason(Observer):
    """``aborts_<reason>``: abandoned executions by reason over the measured window.

    A cell selecting it also carries its scheme-aware analytic reference
    on :attr:`~repro.runner.cells.CellResult.model_reference`.
    """

    name = "aborts_by_reason"
    schema = tuple(f"aborts_{reason.value}" for reason in AbortReason)

    def readout(self, now: float) -> Dict[str, float]:
        """Every reason's count, zeros included."""
        counts = self.system.metrics.aborts_by_reason
        return {f"aborts_{reason.value}": float(counts[reason]) for reason in AbortReason}


class Isolation(Observer):
    """``anomalies_<kind>``: weak-isolation anomalies in the committed history.

    Binding wraps the system's CC scheme in the isolation oracle's
    record-then-check recorder (after HISTEX, arXiv:1903.00731), which
    delegates every decision unchanged.  The history covers the whole run:
    it is not reset at warm-up.
    """

    name = "isolation"
    schema = tuple(f"anomalies_{kind}" for kind in ANOMALY_KINDS)

    def bind(self, system: "TransactionSystem") -> None:
        """Record the committed history through a delegating CC wrapper."""
        super().bind(system)
        self.recorder = HistoryRecorder()
        system.cc = RecordingConcurrencyControl(system.cc, self.recorder)

    def readout(self, now: float) -> Dict[str, float]:
        """Every anomaly kind's count, zeros included."""
        counts = anomaly_counts(self.recorder.committed)
        return {f"anomalies_{kind}": float(counts[kind]) for kind in ANOMALY_KINDS}
