"""Micro-benchmarks of the simulation substrate.

These are conventional pytest-benchmark timings (multiple rounds) of the two
hot paths every experiment exercises: raw event processing in the kernel and
full transaction cycles through the closed model.  They exist so that a
performance regression in the substrate is visible independently of the
(single-shot) figure benchmarks.
"""

from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem


def test_kernel_event_throughput(benchmark):
    """Time to process 20k timeout events through the kernel."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(20_000):
                yield sim.timeout(0.001)

        sim.process(ticker())
        sim.run(until=100.0)
        return sim.now

    benchmark(run)


def test_resource_contention_throughput(benchmark):
    """Time to push 5k jobs through a 4-server FCFS resource.

    Each job is one station visit, computed when it is made and scheduled
    once, for its end.
    """

    def run():
        sim = Simulator()
        resource = Resource(sim, capacity=4)
        completed = []

        def worker():
            for _ in range(50):
                yield resource.visit(0.01, 0.0)
            completed.append(True)

        for _ in range(100):
            sim.process(worker())
        sim.run(until=1e9)
        return len(completed)

    result = benchmark(run)
    assert result == 100


def test_transaction_system_throughput(benchmark):
    """Time to simulate 5 seconds of a small closed transaction system."""
    params = SystemParams(
        n_terminals=50, think_time=0.2, n_cpus=4,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.005, disk_commit=0.005, seed=3,
        workload=WorkloadParams(db_size=500, accesses_per_txn=6,
                                query_fraction=0.25, write_fraction=0.5))

    def run():
        system = TransactionSystem(params)
        system.run(until=5.0)
        return system.metrics.commits

    commits = benchmark(run)
    assert commits > 0
