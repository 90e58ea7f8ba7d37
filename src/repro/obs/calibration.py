"""Closing the loop: probe measurements calibrate the Tay reference.

Tay's mean-value blocking model needs one behavioural constant the static
workload parameters cannot supply: the **waiting share** ``w`` — the
fraction of a transaction's residence time a blocked transaction loses per
blocking wait.  The repo has historically used the literature default of
0.5 (:data:`DEFAULT_WAITING_SHARE`), which is exactly the number the
``lock_wait`` probe (:mod:`repro.obs.probes`) can *measure*: the mean
blocking-wait duration over the mean committed-execution residence time is
the observed waiting share of the very system the model is asked to
explain.

:func:`measured_wait_share` extracts that ratio from a cell's
``probe_<name>`` metrics; :func:`calibrated_tay_model` builds a
:class:`~repro.analytic.tay.TayThroughputModel` around it.  Both degrade
gracefully: metrics without lock-wait data (probes off, or a run with no
blocking waits) fall back to the default, so calibration can be layered
onto any result dict.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analytic.tay import TayThroughputModel
from repro.tp.params import SystemParams, WorkloadParams

#: the literature default waiting share Tay's model falls back to
DEFAULT_WAITING_SHARE = 0.5


def measured_wait_share(metrics: Mapping[str, float],
                        default: float = DEFAULT_WAITING_SHARE) -> float:
    """The waiting share measured by the ``lock_wait`` probe, or ``default``.

    ``metrics`` is any mapping carrying ``probe_<name>`` keys — a
    :attr:`~repro.runner.cells.CellResult.metrics` dict, a
    :attr:`~repro.experiments.stationary.StationaryPoint.observed`
    dict, or a replicate aggregate's per-metric means.  The probe reports
    the ratio directly (``probe_lock_wait_share``); when only the raw
    means are present the ratio is recomputed from
    ``probe_lock_wait_mean / probe_lock_wait_residence_mean``.  A missing
    or degenerate measurement (no waits observed, zero residence) yields
    ``default``; the result is clamped into ``(0, 1]`` as
    :class:`~repro.analytic.tay.TayModel` requires.
    """
    share = metrics.get("probe_lock_wait_share")
    if share is None:
        wait_mean = metrics.get("probe_lock_wait_mean")
        residence_mean = metrics.get("probe_lock_wait_residence_mean")
        if wait_mean is not None and residence_mean:
            share = wait_mean / residence_mean
    if share is None or share <= 0:
        return default
    return min(1.0, float(share))


def calibrated_tay_model(params: SystemParams,
                         metrics: Mapping[str, float],
                         workload: Optional[WorkloadParams] = None,
                         ) -> TayThroughputModel:
    """A Tay throughput reference calibrated from measured lock waits.

    Equivalent to ``TayThroughputModel(params, workload=workload)`` except
    that the waiting share comes from :func:`measured_wait_share` over
    ``metrics`` — so a reference built from a probed run explains *that*
    system's blocking behaviour rather than the literature default's.
    """
    return TayThroughputModel(
        params,
        workload=workload,
        waiting_share=measured_wait_share(metrics),
    )
