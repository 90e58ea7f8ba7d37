"""Integration tests of the closed transaction processing system."""

import pytest

from repro.cc.base import AbortReason
from repro.cc.two_phase_locking import TwoPhaseLocking, WaitDieLocking
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.core.static import FixedLimit, NoControl
from repro.core.incremental_steps import IncrementalStepsController
from repro.experiments.config import contention_bound_params
from repro.obs.catalog import ObserverSet
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem
from repro.tp.workload import JumpSchedule, Workload


def small_params(**overrides):
    """A tiny configuration that runs in milliseconds."""
    defaults = dict(
        n_terminals=20,
        think_time=0.2,
        n_cpus=2,
        cpu_init=0.002,
        cpu_per_access=0.002,
        cpu_commit=0.002,
        disk_per_access=0.005,
        disk_commit=0.005,
        restart_delay=0.005,
        seed=42,
        workload=WorkloadParams(db_size=200, accesses_per_txn=4,
                                query_fraction=0.25, write_fraction=0.5),
    )
    defaults.update(overrides)
    return SystemParams(**defaults)


class TestBasicOperation:
    def test_system_commits_transactions(self):
        system = TransactionSystem(small_params())
        system.run(until=10.0)
        assert system.metrics.commits > 0
        assert system.metrics.throughput() > 0

    def test_close_ends_every_process_and_keeps_the_results(self):
        system = TransactionSystem(small_params())
        system.attach_controller(FixedLimit(5), interval=1.0)
        system.run(until=5.0)
        commits = system.metrics.commits
        processes = system._loops + system._terminal_processes + [
            process for _txn, process in system._active.values()]
        assert system._active and len(system._loops) == 1
        system.close()
        assert all(process.generator.gi_frame is None for process in processes)
        assert system.sim._queue == []
        assert system.metrics.commits == commits > 0

    def test_conservation_admitted_equals_departed_plus_active(self):
        system = TransactionSystem(small_params())
        system.run(until=10.0)
        gate = system.gate
        assert gate.total_admitted == gate.total_departed + gate.current_load

    def test_load_never_exceeds_terminals(self):
        params = small_params()
        system = TransactionSystem(params)
        system.run(until=10.0)
        assert system.gate.current_load <= params.n_terminals
        assert system.gate.load_stats.maximum <= params.n_terminals

    def test_response_times_are_positive(self):
        system = TransactionSystem(small_params())
        system.run(until=10.0)
        assert system.metrics.response_times.minimum > 0

    def test_deterministic_given_seed(self):
        first = TransactionSystem(small_params(seed=7))
        first.run(until=5.0)
        second = TransactionSystem(small_params(seed=7))
        second.run(until=5.0)
        assert first.metrics.commits == second.metrics.commits
        assert first.metrics.restarts == second.metrics.restarts

    def test_different_seeds_differ(self):
        first = TransactionSystem(small_params(seed=1))
        first.run(until=5.0)
        second = TransactionSystem(small_params(seed=2))
        second.run(until=5.0)
        assert (first.metrics.commits, first.metrics.restarts) != (
            second.metrics.commits, second.metrics.restarts)

    def test_start_twice_raises(self):
        system = TransactionSystem(small_params())
        system.start()
        with pytest.raises(RuntimeError):
            system.start()

    def test_summary_keys(self):
        system = TransactionSystem(small_params())
        system.run(until=5.0)
        summary = system.summary()
        for key in ("throughput", "mean_response_time", "cpu_utilisation",
                    "mean_concurrency", "restart_ratio", "current_limit"):
            assert key in summary

    def test_cpu_utilisation_bounded(self):
        system = TransactionSystem(small_params())
        system.run(until=10.0)
        assert 0.0 < system.cpus.utilisation() <= 1.0


class TestAdmissionLimit:
    def test_fixed_limit_caps_concurrency(self):
        params = small_params(think_time=0.01)
        system = TransactionSystem(params)
        system.attach_controller(FixedLimit(3, upper_bound=100), interval=1.0)
        system.run(until=10.0)
        assert system.gate.load_stats.maximum <= 3
        assert system.metrics.commits > 0

    def test_transactions_queue_when_limit_reached(self):
        params = small_params(think_time=0.01, n_terminals=30)
        probe = ObserverSet(("admission_queue",), interval=0.1)
        system = TransactionSystem(params, observers=probe)
        system.attach_controller(FixedLimit(2, upper_bound=100), interval=1.0)
        system.run(until=5.0)
        assert probe.readout(system.sim.now)["probe_admission_queue_max"] > 0

    def test_no_control_admits_everything(self):
        params = small_params(think_time=0.01, n_terminals=15)
        probe = ObserverSet(("admission_queue",), interval=0.1)
        system = TransactionSystem(params, observers=probe)
        system.attach_controller(NoControl(), interval=1.0)
        system.run(until=5.0)
        assert system.gate.queue_length == 0
        assert probe.readout(system.sim.now)["probe_admission_queue_max"] == 0

    def test_attach_controller_after_start_raises(self):
        system = TransactionSystem(small_params())
        system.start()
        with pytest.raises(RuntimeError):
            system.attach_controller(FixedLimit(5), interval=1.0)

    def test_controller_trace_is_recorded(self):
        system = TransactionSystem(small_params())
        measurement = system.attach_controller(
            IncrementalStepsController(initial_limit=5, upper_bound=50), interval=1.0)
        system.run(until=10.0)
        assert len(measurement.trace) >= 8
        assert all(limit >= 1 for limit in measurement.trace.limits)


class TestRestartBehaviour:
    def test_contention_produces_restarts(self):
        # a tiny database and write-heavy workload force certification failures
        params = small_params(
            n_terminals=30, think_time=0.02,
            workload=WorkloadParams(db_size=20, accesses_per_txn=4,
                                    query_fraction=0.0, write_fraction=1.0),
        )
        system = TransactionSystem(params)
        system.run(until=10.0)
        assert system.metrics.restarts > 0
        assert system.metrics.aborts_by_reason[AbortReason.CERTIFICATION] > 0

    def test_no_contention_without_writes(self):
        params = small_params(
            workload=WorkloadParams(db_size=200, accesses_per_txn=4,
                                    query_fraction=1.0, write_fraction=0.0))
        system = TransactionSystem(params)
        system.run(until=10.0)
        assert system.metrics.restarts == 0

    def test_commits_happen_despite_heavy_contention(self):
        params = small_params(
            n_terminals=25, think_time=0.02,
            workload=WorkloadParams(db_size=10, accesses_per_txn=3,
                                    query_fraction=0.0, write_fraction=1.0))
        system = TransactionSystem(params)
        system.run(until=15.0)
        assert system.metrics.commits > 0


class TestWithTwoPhaseLocking:
    def test_blocking_cc_commits_transactions(self):
        params = small_params()
        system = TransactionSystem(params)
        system.cc = TwoPhaseLocking(system.sim)
        system.run(until=10.0)
        assert system.metrics.commits > 0
        # with strict 2PL there are no certification aborts
        assert system.metrics.aborts_by_reason[AbortReason.CERTIFICATION] == 0

    def test_deadlocks_are_resolved_and_victims_restart(self):
        params = small_params(
            n_terminals=25, think_time=0.02,
            workload=WorkloadParams(db_size=10, accesses_per_txn=4,
                                    query_fraction=0.0, write_fraction=1.0))
        system = TransactionSystem(params)
        system.cc = TwoPhaseLocking(system.sim)
        system.run(until=15.0)
        assert system.metrics.commits > 0
        # heavy write contention on ten granules must produce deadlocks
        assert system.metrics.aborts_by_reason[AbortReason.DEADLOCK] > 0
        # and the lock table must be consistent: no transaction stuck forever
        assert system.gate.current_load <= params.n_terminals


class TestDisplacement:
    def test_displacement_enforces_lowered_limit(self):
        params = small_params(think_time=0.01, n_terminals=30)
        policy = DisplacementPolicy(criterion=VictimCriterion.YOUNGEST)
        system = TransactionSystem(params, displacement=policy)
        system.attach_controller(FixedLimit(20, upper_bound=100), interval=0.5)
        system.start()
        system.run(until=2.0)
        assert system.gate.current_load > 5
        displaced = system.displace_to(5.0)
        assert displaced > 0
        system.run(until=2.5)
        assert system.gate.current_load <= 20
        assert system.metrics.aborts_by_reason[AbortReason.DISPLACEMENT] >= displaced

    def test_displaced_transactions_eventually_commit(self):
        params = small_params(think_time=0.05, n_terminals=15)
        policy = DisplacementPolicy(criterion=VictimCriterion.YOUNGEST)
        system = TransactionSystem(params, displacement=policy)
        system.attach_controller(FixedLimit(10, upper_bound=100), interval=0.5)
        system.start()
        system.run(until=1.0)
        system.displace_to(2.0)
        before = system.metrics.commits
        system.run(until=8.0)
        assert system.metrics.commits > before

    def test_displace_without_policy_is_noop(self):
        system = TransactionSystem(small_params())
        system.run(until=1.0)
        assert system.displace_to(1.0) == 0

    def test_displacement_during_a_restart_delay_keeps_the_terminal_alive(self):
        """Regression: displacing a transaction that waits to restart after
        a lock-conflict abort killed its terminal.

        The restart delay ran outside the lifecycle's ``try``, so the
        displacement interrupt escaped it: the lifecycle and then its
        terminal process failed, and the transaction kept its slot in
        ``_active`` and in the gate's load for the rest of the run.
        Wait-die aborts many lock requesters, and zero-hysteresis
        displacement after a jump of ``k`` hits some of them mid-delay.
        """
        base = contention_bound_params(seed=31)
        params = base.with_changes(
            n_terminals=150, workload=base.workload.with_changes(db_size=500))
        sim = Simulator()
        streams = RandomStreams(params.seed)
        workload = Workload(
            params.workload, streams, accesses=JumpSchedule(4, 16, jump_time=20.0))
        system = TransactionSystem(
            params, sim=sim, streams=streams, workload=workload,
            cc=WaitDieLocking(sim),
            displacement=DisplacementPolicy(VictimCriterion.YOUNGEST, hysteresis=0))
        controller = IncrementalStepsController(
            initial_limit=100, beta=0.5, gamma=8, delta=20, min_step=4.0,
            lower_bound=4, upper_bound=params.n_terminals)
        loop = system.attach_controller(controller, interval=2.0)
        system.run(until=40.0)
        assert loop.total_displaced > 0
        assert all(process.is_alive for process in system._terminal_processes)
        live = [process for _txn, process in system._active.values() if process.is_alive]
        assert len(live) == len(system._active)
        assert system.gate.current_load == len(live)
