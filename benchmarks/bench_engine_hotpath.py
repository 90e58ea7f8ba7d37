"""Microbenchmark of the discrete-event engine's hot paths.

Unlike the figure benchmarks (which time whole experiments), this module
times the four code paths every experiment cell bottoms out in:

* **timeout churn** — processes yielding ``sim.timeout``; the single most
  frequent event kind in the transaction model;
* **process completion** — spawning short-lived processes and waiting on
  their completion events (the kernel's join path; the transaction model
  no longer takes it, since each terminal or session runs its
  transactions' lifecycles itself and nothing waits on a finished
  session's completion event);
* **resource cycling** — FCFS station visits on a multi-server
  :class:`~repro.sim.resources.Resource` (the CPU station), which computes
  each visit's start and release when it is made and schedules the visit
  once, for its end: one heap entry per visit;
* **closed transaction system** — end-to-end transactions per wall second
  through a small :class:`~repro.tp.system.TransactionSystem`.

Each workload reports a rate (events/sec or transactions/sec, best of
``REPEATS`` runs) so before/after comparisons of engine changes are a
single number per path.  ``REPRO_BENCH_SCALE`` selects the workload size
(``smoke``/``benchmark``/``paper``); results scale linearly, the ratios
are what matters.

Run standalone for the comparison table::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py

or through pytest (CI runs this at smoke scale)::

    REPRO_BENCH_SCALE=smoke python -m pytest benchmarks/bench_engine_hotpath.py -s
"""

import os
import time

from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem

#: best-of-N timing repeats per workload
REPEATS = 3

#: workload sizes per REPRO_BENCH_SCALE value
_SIZES = {
    # (timeout events, processes, resource cycles, system sim-seconds)
    "smoke": (60_000, 6_000, 12_000, 3.0),
    "benchmark": (240_000, 24_000, 48_000, 10.0),
    "paper": (1_200_000, 120_000, 240_000, 30.0),
}


def _sizes():
    name = os.environ.get("REPRO_BENCH_SCALE", "benchmark").lower()
    return _SIZES.get(name, _SIZES["benchmark"])


def _best_rate(workload, units):
    """Best units/second over REPEATS runs of ``workload`` (fresh state each)."""
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        produced = workload()
        elapsed = time.perf_counter() - start
        assert produced == units, f"workload produced {produced}, expected {units}"
        best = max(best, units / elapsed)
    return best


# ----------------------------------------------------------------------
# the four workloads
# ----------------------------------------------------------------------
def bench_timeout_events(n_events: int) -> float:
    """Timeout events processed per second (10 interleaving processes)."""
    n_processes = 10
    per_process = n_events // n_processes

    def run():
        sim = Simulator()
        counter = []

        def ticker(delay):
            for _ in range(per_process):
                yield sim.timeout(delay)
            counter.append(per_process)

        for index in range(n_processes):
            # distinct delays keep the heap genuinely interleaved
            sim.process(ticker(0.001 + 0.0001 * index))
        sim.run(until=1e9)
        return sum(counter)

    return _best_rate(run, per_process * n_processes)


def bench_process_completion(n_processes: int) -> float:
    """Short-lived processes completed (and waited on) per second."""

    def run():
        sim = Simulator()
        done = []

        def child():
            yield sim.timeout(0.001)
            return 1

        def parent():
            for _ in range(n_processes):
                value = yield sim.process(child())
                done.append(value)

        sim.process(parent())
        sim.run(until=1e9)
        return len(done)

    return _best_rate(run, n_processes)


def bench_resource_cycles(n_cycles: int) -> float:
    """FCFS station visits per second (8 workers, 4 servers), one heap entry each."""
    n_workers = 8
    per_worker = n_cycles // n_workers

    def run():
        sim = Simulator()
        resource = Resource(sim, capacity=4)
        completed = []

        def worker():
            for _ in range(per_worker):
                yield resource.visit(0.01, 0.0)
            completed.append(per_worker)

        for _ in range(n_workers):
            sim.process(worker())
        sim.run(until=1e9)
        return sum(completed)

    return _best_rate(run, per_worker * n_workers)


def bench_transaction_system(sim_seconds: float) -> float:
    """Committed transactions per wall second through the closed model."""
    params = SystemParams(
        n_terminals=60, think_time=0.2, n_cpus=4,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.005, disk_commit=0.005, seed=7,
        workload=WorkloadParams(db_size=600, accesses_per_txn=6,
                                query_fraction=0.25, write_fraction=0.5))

    best = 0.0
    for _ in range(REPEATS):
        system = TransactionSystem(params)
        start = time.perf_counter()
        system.run(until=sim_seconds)
        elapsed = time.perf_counter() - start
        commits = system.metrics.commits
        assert commits > 0, "the closed system must commit transactions"
        best = max(best, commits / elapsed)
    return best


def collect_rates() -> dict:
    """All four hot-path rates at the selected scale."""
    n_events, n_processes, n_cycles, sim_seconds = _sizes()
    return {
        "timeout_events_per_sec": bench_timeout_events(n_events),
        "process_completions_per_sec": bench_process_completion(n_processes),
        "resource_cycles_per_sec": bench_resource_cycles(n_cycles),
        "transactions_per_sec": bench_transaction_system(sim_seconds),
    }


# ----------------------------------------------------------------------
# pytest interface (CI runs this at smoke scale)
# ----------------------------------------------------------------------
def test_engine_hotpath_rates():
    rates = collect_rates()
    print()
    print("engine hot-path microbenchmark "
          f"(scale={os.environ.get('REPRO_BENCH_SCALE', 'benchmark')})")
    for name, rate in rates.items():
        print(f"  {name:>30}: {rate:12,.0f}")
    for name, rate in rates.items():
        assert rate > 0, f"{name} must be positive"


def main() -> int:
    test_engine_hotpath_rates()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
