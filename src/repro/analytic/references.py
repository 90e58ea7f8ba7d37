"""Scheme-aware analytic references: which model explains which scheme.

The paper's load-control argument leans on *two* analytic traditions
(Section 1): Tay's mean-value blocking model for two-phase locking and the
optimistic fixed-point models (Dan et al.; Thomasian & Ryu) for
certification schemes.  The experiment layer used to compare every series
against the OCC fixed point regardless of the scheme that produced it;
with the concurrency control registry carrying a *family* per kind
(:func:`repro.cc.registry.cc_family`), the reference can follow the
scheme:

* **locking** family (``two_phase_locking``, ``wound_wait``, ``wait_die``)
  → :class:`~repro.analytic.tay.TayThroughputModel` (Tay's quadratic
  blocking with a calibrated waiting share, adapted to absolute
  throughput);
* **optimistic** family (``timestamp_cert``, ``occ_forward``), the
  **multiversion** family (``snapshot_isolation`` — first-committer-wins
  certification is an optimistic validation over write sets, so the OCC
  fixed point remains the right first-order theory) and runs without an
  explicit scheme → :class:`~repro.analytic.occ.OccModel`.

:func:`reference_model_for` is the single decision point; the runner's
sweep converters, the scenario goldens and the report tables all label
series with the name it returns, so a reader of any table knows which
first-order theory the ``model_reference`` column came from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.analytic.occ import OccModel
from repro.analytic.tay import TayThroughputModel
from repro.cc.registry import CCSpec, cc_family

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tp.params import SystemParams, WorkloadParams

#: names reported for the two reference models
TAY_REFERENCE = "TayModel"
OCC_REFERENCE = "OccModel"


def reference_family(cc: Optional[CCSpec]) -> str:
    """The analytic family of a cell's ``cc`` field.

    ``None`` is the system default, timestamp certification, which is
    optimistic.
    """
    return "optimistic" if cc is None else cc_family(cc.kind)


def reference_model_name(cc: Optional[CCSpec]) -> str:
    """The reported name of the reference model for a cell's scheme."""
    return TAY_REFERENCE if reference_family(cc) == "locking" else OCC_REFERENCE


def reference_model_for(params: "SystemParams",
                        cc: Optional[CCSpec],
                        waiting_share: Optional[float] = None,
                        ) -> Tuple[str, object]:
    """Build the scheme-aware analytic reference for one cell.

    Returns ``(name, model)`` where ``model`` offers ``throughput(mpl)``
    and ``optimal_mpl()`` — the interface both
    :class:`~repro.analytic.occ.OccModel` and
    :class:`~repro.analytic.tay.TayThroughputModel` share.
    ``waiting_share`` calibrates the Tay reference from *measured*
    lock-wait statistics (see :func:`repro.obs.calibration.measured_wait_share`);
    ``None`` keeps the model's default and is ignored by the optimistic
    reference, which has no such knob.
    """
    if reference_family(cc) == "locking":
        if waiting_share is not None:
            return TAY_REFERENCE, TayThroughputModel(
                params, waiting_share=waiting_share)
        return TAY_REFERENCE, TayThroughputModel(params)
    return OCC_REFERENCE, OccModel(params)


def reference_optimum(params: "SystemParams",
                      cc: Optional[CCSpec] = None,
                      workload: Optional["WorkloadParams"] = None,
                      ) -> Tuple[str, float, float]:
    """The scheme-aware analytic optimum for one cell's configuration.

    Returns ``(name, optimal_mpl, peak_throughput)`` — the model name that
    :func:`reference_model_for` would report, the multiprogramming level the
    model considers optimal, and the throughput at that level.  ``workload``
    overrides the workload parameters the model sees (used by cells whose
    effective workload differs from ``params.workload``: mixed-class cells
    score against the expectation of their mix, tracking cells against the
    parameters in effect after the disturbance).

    This is the score oracle seam of the workload fuzzer: a controller "fails
    to rescue" a run when its measured throughput stays far below the peak
    this function predicts for the run's own configuration.
    """
    if reference_family(cc) == "locking":
        name, model = TAY_REFERENCE, TayThroughputModel(params, workload=workload)
    else:
        name, model = OCC_REFERENCE, OccModel(params, workload=workload)
    optimal = float(model.optimal_mpl())
    return name, optimal, float(model.throughput(optimal))
