"""The in-sim probes: measured-window readouts and the CC wait-depth hook.

The catalog-wide contract (trajectory preservation, schemas) lives in
``tests/obs/test_observers.py``; these tests pin what is particular to
the probes: their readouts cover the measured window, because every probe
resets at the end of warm-up.
"""

import pytest

from repro.cc.registry import CCSpec
from repro.experiments.stationary import run_stationary_point
from repro.obs.probes import PROBE_NAMES
from repro.tp.params import SystemParams, WorkloadParams

HORIZON = 6.0


@pytest.fixture(scope="module")
def probed():
    params = SystemParams(
        n_terminals=40, think_time=0.0, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, restart_delay=0.005, seed=11,
        workload=WorkloadParams(db_size=150, accesses_per_txn=6,
                                query_fraction=0.1, write_fraction=0.8))
    return run_stationary_point(
        params, horizon=HORIZON, warmup=2.0, measurement_interval=1.0,
        cc=CCSpec.make("two_phase_locking", victim_policy="youngest"),
        observers=PROBE_NAMES)


class TestMeasuredWindow:
    def test_residences_count_exactly_the_measured_commits(self, probed):
        assert probed.observed["probe_lock_wait_residence_count"] == probed.commits > 0
        assert probed.observed["probe_lock_wait_count"] > 0

    def test_abort_rates_divide_the_measured_counts_by_the_horizon(self, probed):
        deadlocks = probed.aborts_by_reason["deadlock"]
        assert deadlocks > 0
        assert probed.observed["probe_abort_rate_deadlock"] == pytest.approx(deadlocks / HORIZON)
        assert probed.observed["probe_displacement_count"] == 0.0

    def test_gauges_stay_within_the_system(self, probed):
        observed = probed.observed
        assert 0 < observed["probe_mpl_mean"] <= observed["probe_mpl_max"] <= 40
        assert 0 < observed["probe_lock_queue_mean"] <= observed["probe_lock_queue_max"] <= 40
        assert observed["probe_arrival_backlog_max"] <= 40


class TestWaitDepthHook:
    def test_non_blocking_schemes_report_zero_depth(self):
        from repro.sim.engine import Simulator
        from repro.cc.timestamp_cert import TimestampCertification

        scheme = TimestampCertification(Simulator())
        assert scheme.wait_depth() == 0

    def test_locking_scheme_reports_its_blocked_count(self):
        from repro.sim.engine import Simulator
        from repro.cc.two_phase_locking import LockingScheme

        scheme = LockingScheme(Simulator())
        assert scheme.wait_depth() == scheme.blocked_count == 0
