"""In-simulation probes: seven observers of lock waits, queues and aborts.

Each probe is a named observer of the :mod:`repro.obs.catalog`, selected
per cell in :attr:`~repro.runner.specs.RunSpec.observers` and reported as
``probe_<name>`` cell metrics; its class docstring says what it measures.
A probe's readout is a pure function of the simulated trajectory, and the
gauge probes are sampled by a process that draws no random numbers and
mutates no model state, so probe metrics are bit-identical on every
executor and a probed cell commits exactly what the unprobed cell does.
Probes reset at the end of warm-up: they cover the measured window.  The
``lock_wait`` probe's ratio of waits to residence is the measured Tay
waiting share of :mod:`repro.obs.calibration`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cc.base import AbortReason
from repro.obs.observers import Observer
from repro.sim.stats import ObservationStats, TimeWeightedStats


def _per_second(count: float, elapsed: float) -> float:
    return count / elapsed if elapsed > 0 else 0.0


class LockWait(Observer):
    """``probe_lock_wait_*``: blocking waits, committed residence and their ratio."""

    name = "lock_wait"
    hooks = ("lock_wait", "commit")
    schema = tuple(f"probe_lock_wait_{key}" for key in (
        "count", "mean", "max", "total", "residence_count", "residence_mean", "share"))

    def __init__(self) -> None:
        self._waits = ObservationStats()
        self._residence = ObservationStats()

    def lock_wait(self, now: float, txn, waited: float) -> None:
        """One blocking wait resolved after ``waited`` simulated seconds."""
        self._waits.add(waited)

    def commit(self, now: float, txn) -> None:
        """A transaction committed ``now``; its residence runs from its last (re)start."""
        self._residence.add(now - txn.execution_started_at)

    def reset(self, now: float) -> None:
        """Forget the warm-up's waits and residences."""
        self._waits.reset()
        self._residence.reset()

    def readout(self, now: float) -> Dict[str, float]:
        """Wait statistics and the measured waiting share (0 without waits)."""
        waits, residence = self._waits, self._residence
        share = 0.0
        if waits.count and residence.count and residence.mean > 0:
            share = min(1.0, waits.mean / residence.mean)
        return {
            "probe_lock_wait_count": float(waits.count),
            "probe_lock_wait_mean": waits.mean,
            "probe_lock_wait_max": waits.maximum,
            "probe_lock_wait_total": waits.total,
            "probe_lock_wait_residence_count": float(residence.count),
            "probe_lock_wait_residence_mean": residence.mean,
            "probe_lock_wait_share": share,
        }


class _Gauge(Observer):
    """A gauge sampled every interval, reported as its time-weighted mean and max."""

    hooks = ("sample",)

    def bind(self, system) -> None:
        """Open the gauge at zero."""
        super().bind(system)
        self._stats = TimeWeightedStats(system.sim.now, 0.0)

    def sample(self, now: float) -> None:
        """Record the current value at simulation time ``now``."""
        self._stats.update(now, self._value())

    def reset(self, now: float) -> None:
        """Open the window on the true instantaneous state, not the pre-reset one."""
        self._stats.reset(now)
        self.sample(now)

    def readout(self, now: float) -> Dict[str, float]:
        """``probe_<name>_mean`` and ``probe_<name>_max``."""
        return {f"probe_{self.name}_mean": self._stats.mean(now),
                f"probe_{self.name}_max": self._stats.maximum}


class LockQueue(_Gauge):
    """``probe_lock_queue_*``: transactions blocked inside the CC scheme."""

    name = "lock_queue"
    schema = ("probe_lock_queue_mean", "probe_lock_queue_max")

    def _value(self) -> float:
        return self.system.cc.wait_depth()


class AdmissionQueue(_Gauge):
    """``probe_admission_queue_*``: the admission gate's queue length."""

    name = "admission_queue"
    schema = ("probe_admission_queue_mean", "probe_admission_queue_max")

    def _value(self) -> float:
        return self.system.gate.queue_length


class Mpl(_Gauge):
    """``probe_mpl_*``: the multiprogramming level (admitted transactions)."""

    name = "mpl"
    schema = ("probe_mpl_mean", "probe_mpl_max")

    def _value(self) -> float:
        return self.system.gate.current_load


class ArrivalBacklog(_Gauge):
    """``probe_arrival_backlog_*``: admitted plus queued submissions."""

    name = "arrival_backlog"
    schema = ("probe_arrival_backlog_mean", "probe_arrival_backlog_max")

    def _value(self) -> float:
        gate = self.system.gate
        return gate.current_load + gate.queue_length


class AbortRates(Observer):
    """``probe_abort_rate_<reason>``: aborted executions per simulated second."""

    name = "abort_rates"
    schema = tuple(f"probe_abort_rate_{reason.value}" for reason in AbortReason)

    def readout(self, now: float) -> Dict[str, float]:
        """Every reason's rate over the run metrics' measured window."""
        metrics = self.system.metrics
        elapsed = now - metrics.measured_from
        return {f"probe_abort_rate_{reason.value}": _per_second(metrics.aborts_by_reason[reason], elapsed)
                for reason in AbortReason}


class Displacement(Observer):
    """``probe_displacement_*``: executions the load controller displaced."""

    name = "displacement"
    schema = ("probe_displacement_count", "probe_displacement_rate")

    def readout(self, now: float) -> Dict[str, float]:
        """The count and rate over the run metrics' measured window."""
        metrics = self.system.metrics
        displaced = float(metrics.aborts_by_reason[AbortReason.DISPLACEMENT])
        return {"probe_displacement_count": displaced,
                "probe_displacement_rate": _per_second(displaced, now - metrics.measured_from)}


#: every probe, in catalog order
PROBES = (LockWait, LockQueue, AdmissionQueue, Mpl, AbortRates, Displacement, ArrivalBacklog)
PROBE_NAMES: Tuple[str, ...] = tuple(probe.name for probe in PROBES)
