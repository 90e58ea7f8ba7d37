"""Diagnostics on real stationary cells: per-reason aborts, anomalies, refs.

``tp.metrics`` has always counted aborts per reason, but until the
``deadlock_resolution`` scenario nothing at the *sweep* level pinned that
the restart-heavy deadlock-avoiding schemes report their restarts under
the right label.  These tests run real cells with the ``aborts_by_reason``
observer through :func:`~repro.runner.cells.execute_run_spec` and assert
the full chain: scheme -> RunMetrics -> observer -> cell metrics.

The ``isolation`` observer goes one layer deeper: the cell's committed
history flows through the isolation oracle (:mod:`repro.cc.history`) and
per-kind ``anomalies_<kind>`` counts land in the metrics — zero across the
board for serializable schemes, write skew (and nothing else) for snapshot
isolation on a contended cell.  The catalog-wide contract (trajectory
preservation, schemas, tracking rejection) is ``tests/obs/test_observers.py``.
"""

from repro.cc import ANOMALY_KINDS, CCSpec
from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.specs import KIND_STATIONARY, RunSpec
from repro.tp.params import SystemParams, WorkloadParams

#: every metric key an aborts_by_reason cell must carry, one per AbortReason
ABORT_METRICS = ("aborts_certification", "aborts_deadlock", "aborts_die",
                 "aborts_displacement", "aborts_wound")

#: every metric key an isolation-observed cell must carry
ANOMALY_METRICS = tuple(f"anomalies_{kind}" for kind in ANOMALY_KINDS)


def contended_params(seed: int = 11) -> SystemParams:
    return SystemParams(
        n_terminals=40, think_time=0.0, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, restart_delay=0.005,
        seed=seed,
        workload=WorkloadParams(db_size=150, accesses_per_txn=6,
                                query_fraction=0.1, write_fraction=0.8))


def run_cell(kind: str, **spec_kwargs):
    spec = RunSpec(
        kind=KIND_STATIONARY,
        cell_id=f"diag/{kind}",
        params=contended_params(),
        scale=ExperimentScale.smoke(),
        cc=CCSpec.make(kind),
        label=kind,
        **spec_kwargs,
    )
    return execute_run_spec(spec)


class TestAbortReasonPropagation:
    def test_wound_wait_reports_wounds_not_deadlocks(self):
        """The restart-family reason survives to the sweep level."""
        result = run_cell("wound_wait", observers=("aborts_by_reason",))
        for key in ABORT_METRICS:
            assert key in result.metrics
        assert result.metrics["aborts_wound"] > 0, (
            "the contended cell never wounded — vacuous")
        assert result.metrics["aborts_deadlock"] == 0.0
        assert result.metrics["aborts_die"] == 0.0
        assert result.metrics["aborts_certification"] == 0.0
        # the payload carries the same counts for figure-level consumers
        assert result.payload.aborts_by_reason["wound"] == int(
            result.metrics["aborts_wound"])

    def test_wait_die_reports_deaths(self):
        result = run_cell("wait_die", observers=("aborts_by_reason",))
        assert result.metrics["aborts_die"] > 0
        assert result.metrics["aborts_deadlock"] == 0.0
        assert result.metrics["aborts_wound"] == 0.0

    def test_detector_reports_deadlocks(self):
        result = run_cell("two_phase_locking", observers=("aborts_by_reason",))
        assert result.metrics["aborts_deadlock"] > 0
        assert result.metrics["aborts_wound"] == 0.0
        assert result.metrics["aborts_die"] == 0.0

    def test_optimistic_schemes_report_certification(self):
        for kind in ("timestamp_cert", "occ_forward"):
            result = run_cell(kind, observers=("aborts_by_reason",))
            assert result.metrics["aborts_certification"] > 0, kind
            assert result.metrics["aborts_deadlock"] == 0.0, kind


class TestReplicatedDiagnostics:
    def test_replicated_sweeps_keep_per_reason_aborts(self):
        """The synthetic mean point folds the aborts_<reason> means back
        (regression: replicates > 1 used to reset aborts_by_reason to {})."""
        from repro.experiments.stationary import stationary_sweep_spec
        from repro.runner import run_sweep, stationary_sweeps

        tiny = ExperimentScale(
            stationary_horizon=3.0, warmup=0.5, offered_loads=(40,),
            tracking_horizon=12.0, measurement_interval=2.0, synthetic_steps=30)
        spec = stationary_sweep_spec(contended_params(), scale=tiny,
                                     label="wound-wait", name="diag_replicated",
                                     cc=CCSpec.make("wound_wait"),
                                     observers=("aborts_by_reason",))
        result = run_sweep(spec, replicates=2)
        (sweep,) = stationary_sweeps(result).values()
        (point,) = sweep.points
        assert point.aborts_by_reason["wound"] > 0
        assert point.aborts_by_reason["deadlock"] == 0


class TestIsolationDiagnostics:
    def test_serializable_schemes_report_zero_anomalies(self):
        """The recording wrapper sees clean histories under real load."""
        for kind in ("two_phase_locking", "timestamp_cert"):
            result = run_cell(kind, observers=("isolation",))
            for key in ANOMALY_METRICS:
                assert result.metrics[key] == 0.0, (kind, key)

    def test_snapshot_isolation_reports_write_skew_and_nothing_else(self):
        result = run_cell("snapshot_isolation", observers=("isolation",))
        assert result.metrics["anomalies_write_skew"] > 0, (
            "the contended cell produced no write skew — vacuous")
        assert result.metrics["anomalies_lost_update"] == 0.0
        assert result.metrics["anomalies_long_fork"] == 0.0
        assert result.metrics["anomalies_non_repeatable_read"] == 0.0
        # the payload carries the same counts for figure-level consumers
        assert result.payload.observed["anomalies_write_skew"] == \
            result.metrics["anomalies_write_skew"]

    def test_replicated_sweeps_keep_per_kind_anomalies(self):
        """The synthetic mean point folds the anomalies_<kind> means back."""
        from repro.experiments.stationary import stationary_sweep_spec
        from repro.runner import run_sweep, stationary_sweeps

        tiny = ExperimentScale(
            stationary_horizon=3.0, warmup=0.5, offered_loads=(40,),
            tracking_horizon=12.0, measurement_interval=2.0, synthetic_steps=30)
        # tighten the database so the short horizon still produces skew
        # in every replicate (the fold rounds the replicate mean)
        base = contended_params()
        base = base.with_changes(
            workload=base.workload.with_changes(db_size=40))
        spec = stationary_sweep_spec(base, scale=tiny,
                                     label="SI", name="diag_isolation",
                                     cc=CCSpec.make("snapshot_isolation"),
                                     observers=("isolation",))
        result = run_sweep(spec, replicates=2)
        (sweep,) = stationary_sweeps(result).values()
        (point,) = sweep.points
        assert point.observed["anomalies_write_skew"] > 0
        assert point.observed["anomalies_lost_update"] == 0


class TestModelReferenceLabel:
    def test_locking_cells_are_referenced_against_tay(self):
        for kind in ("two_phase_locking", "wound_wait", "wait_die"):
            assert run_cell(kind, observers=("aborts_by_reason",)).model_reference == "TayModel"

    def test_optimistic_cells_keep_the_occ_reference(self):
        for kind in ("timestamp_cert", "occ_forward"):
            assert run_cell(kind, observers=("aborts_by_reason",)).model_reference == "OccModel"
