"""Tests for the measurement process (the feedback loop plumbing)."""

import pytest

from repro.core.admission import AdmissionGate
from repro.core.incremental_steps import IncrementalStepsController
from repro.core.measurement import MeasurementProcess
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.static import FixedLimit
from repro.sim.engine import Simulator
from repro.tp.metrics import RunMetrics
from repro.tp.transaction import Transaction, TransactionClass


def make_txn(txn_id):
    return Transaction(
        txn_id=txn_id, terminal_id=0, txn_class=TransactionClass.QUERY,
        items=(txn_id,), write_flags=(False,), submitted_at=0.0)


def build_loop(controller, interval=1.0, warmup=0.0, tuner=None, displace=None):
    sim = Simulator()
    gate = AdmissionGate(sim)
    metrics = RunMetrics(sim)
    loop = MeasurementProcess(sim, gate, metrics, controller, interval,
                              warmup=warmup, interval_tuner=tuner, displace=displace)
    return sim, gate, metrics, loop


class TestValidation:
    def test_interval_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MeasurementProcess(sim, AdmissionGate(sim), RunMetrics(sim),
                               FixedLimit(5), interval=0.0)

    def test_warmup_must_be_non_negative(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MeasurementProcess(sim, AdmissionGate(sim), RunMetrics(sim),
                               FixedLimit(5), interval=1.0, warmup=-1.0)


class TestSampling:
    def test_start_installs_initial_limit(self):
        sim, gate, _metrics, loop = build_loop(FixedLimit(7, upper_bound=100))
        loop.start()
        assert gate.limit == 7

    def test_periodic_samples_are_taken(self):
        sim, _gate, _metrics, loop = build_loop(FixedLimit(7, upper_bound=100), interval=2.0)
        loop.start()
        sim.run(until=10.0)
        assert loop.samples_taken == 5
        assert len(loop.trace) == 5

    def test_measurement_contains_interval_throughput(self):
        controller = FixedLimit(50, upper_bound=100)
        sim, gate, metrics, loop = build_loop(controller, interval=2.0)
        loop.start()

        def commit_generator():
            for index in range(20):
                yield sim.timeout(0.5)
                metrics.record_commit(response_time=0.1)

        sim.process(commit_generator())
        sim.run(until=4.0)
        # each 2-second interval contains 4 commits -> throughput 2/s
        assert loop.trace.throughput[0] == pytest.approx(2.0, abs=0.5)
        assert loop.trace.throughput[1] == pytest.approx(2.0, abs=0.5)

    def test_controller_decision_is_applied_to_gate(self):
        controller = IncrementalStepsController(initial_limit=5, upper_bound=50)
        sim, gate, metrics, loop = build_loop(controller, interval=1.0)
        loop.start()
        sim.run(until=3.0)
        assert gate.limit == controller.current_limit
        assert gate.limit != 5  # the controller moved away from its start value

    def test_warmup_delays_first_sample(self):
        sim, _gate, _metrics, loop = build_loop(FixedLimit(5, upper_bound=10),
                                                interval=1.0, warmup=5.0)
        loop.start()
        sim.run(until=5.5)
        assert loop.samples_taken == 0
        sim.run(until=6.5)
        assert loop.samples_taken == 1

    def test_trace_matches_measurement_series(self):
        sim, _gate, metrics, loop = build_loop(FixedLimit(9, upper_bound=20), interval=1.0)
        loop.start()
        sim.run(until=4.0)
        assert loop.trace.times == pytest.approx([1.0, 2.0, 3.0, 4.0])
        assert all(limit == 9 for limit in loop.trace.limits)

    def test_mean_concurrency_measured_from_gate(self):
        sim, gate, _metrics, loop = build_loop(FixedLimit(50, upper_bound=100), interval=2.0)
        loop.start()
        transactions = [make_txn(i) for i in range(4)]

        def load_generator():
            for txn in transactions:
                gate.submit(txn)
                yield sim.timeout(0.5)

        sim.process(load_generator())
        sim.run(until=2.0)
        # load steps 1,2,3,4 at half-second spacing; the time average is 2.5
        assert loop.trace.concurrency[0] == pytest.approx(2.5, abs=0.3)


class TestDisplacementHook:
    def test_displace_called_when_limit_below_load(self):
        calls = []

        def displace(limit):
            calls.append(limit)
            return 2

        controller = FixedLimit(2, upper_bound=100)
        sim, gate, _metrics, loop = build_loop(controller, interval=1.0, displace=displace)
        # put 5 transactions into the system before the loop starts
        for i in range(5):
            gate.submit(make_txn(i))
        loop.start()
        sim.run(until=1.5)
        assert calls and calls[0] == 2
        assert loop.total_displaced >= 2

    def test_displace_not_called_when_limit_above_load(self):
        calls = []
        controller = FixedLimit(50, upper_bound=100)
        sim, gate, _metrics, loop = build_loop(
            controller, interval=1.0, displace=lambda limit: calls.append(limit) or 0)
        gate.submit(make_txn(1))
        loop.start()
        sim.run(until=2.5)
        assert calls == []


class TestIntervalTunerIntegration:
    def test_tuner_adjusts_interval(self):
        tuner = MeasurementIntervalTuner(target_departures=10, min_interval=0.5,
                                         max_interval=20.0, smoothing=1.0)
        controller = FixedLimit(50, upper_bound=100)
        sim, _gate, metrics, loop = build_loop(controller, interval=1.0, tuner=tuner)
        loop.start()

        def commit_generator():
            while True:
                yield sim.timeout(0.1)
                metrics.record_commit(response_time=0.05)

        sim.process(commit_generator())
        sim.run(until=5.0)
        # ~10 commits/second and a 10-departure target -> ~1 second interval
        assert 0.5 <= loop.interval <= 2.0
        assert loop.samples_taken >= 3
        # the run keeps the throughput history; the tuner stays plain config
        assert loop.throughputs.count == loop.samples_taken
        assert tuner == MeasurementIntervalTuner(target_departures=10, min_interval=0.5,
                                                 max_interval=20.0, smoothing=1.0)
