"""Deterministic observability: named in-sim observers and structured run telemetry.

The package has two halves, both opt-in and both zero-cost when off:

* :mod:`repro.obs.catalog` — **in-sim observers** (``trace``, the seven
  probes of :mod:`repro.obs.probes`, the diagnostics of
  :mod:`repro.obs.observers`) watch a running
  :class:`~repro.tp.system.TransactionSystem` on *simulation* time,
  selected per cell in :attr:`~repro.runner.specs.RunSpec.observers`.  They
  are trajectory-preserving and bit-identical on every executor.
* :mod:`repro.obs.telemetry` — **structured run telemetry**: *wall-clock*
  spans (cell execute times, sweep durations, dispatch/queue waits,
  heartbeat gaps) emitted as canonical JSONL by the executors and the
  distributed coordinator, attributed to the worker process that produced
  them.  Summarise a telemetry file with the ``repro-obs`` CLI
  (:mod:`repro.obs.cli`).

:mod:`repro.obs.calibration` closes the loop into the analytic layer: the
lock-wait probe's measured statistics calibrate
:class:`~repro.analytic.tay.TayThroughputModel`'s waiting share instead of
the 0.5 default.

See ``docs/observability.md`` for the observer catalog and the propagation
contract (what reaches worker processes and how).
"""

from repro.obs.calibration import DEFAULT_WAITING_SHARE, calibrated_tay_model, measured_wait_share
from repro.obs.catalog import OBSERVER_NAMES, ObserverSet, metric_schema, validate_observers
from repro.obs.probes import PROBE_NAMES
from repro.obs.telemetry import (
    TELEMETRY_ENV,
    TelemetrySink,
    active_sink,
    configure_cli_logging,
    emit,
    install_sink,
    set_worker_name,
    telemetry_to,
    worker_name,
)

__all__ = [
    "DEFAULT_WAITING_SHARE",
    "OBSERVER_NAMES",
    "ObserverSet",
    "PROBE_NAMES",
    "TELEMETRY_ENV",
    "TelemetrySink",
    "active_sink",
    "calibrated_tay_model",
    "configure_cli_logging",
    "emit",
    "install_sink",
    "measured_wait_share",
    "metric_schema",
    "set_worker_name",
    "telemetry_to",
    "validate_observers",
    "worker_name",
]
