"""Distributed-executor scaling: cells/sec versus localhost worker count.

Runs the ``fig12_stationary`` sweep through a real coordinator + worker
cluster — TCP sockets, subprocess workers, pickle frames — for 1, 2 and 4
workers, and reports the measured throughput in cells per second.  On a
many-core host the speedup approaches the worker count (the cells are
independent, minutes-long simulations); on a small CI box the numbers
mostly document the dispatch overhead, which the one-worker run records as
``overhead_ms_per_cell``: its wall time less the serial executor's, per
cell (``serial_s`` is the serial time).  Either way, every configuration's
results are asserted bit-identical to the serial executor — the scaling
lever never costs determinism.

Scale follows ``REPRO_BENCH_SCALE`` like every other benchmark; worker
counts are fixed at {1, 2, 4} (the ``REPRO_BENCH_WORKERS`` variable sizes
the local cluster of every other benchmark's sweeps, not this one).
"""

import time

import pytest
from conftest import run_once

from repro.dist.coordinator import DistributedExecutor
from repro.runner import SerialExecutor, execute_run_spec
from repro.runner.registry import build_sweep

SCENARIO = "fig12_stationary"

#: (scale, spec, serial results, serial seconds) — computed once per
#: session; keyed by the scale's value (a frozen dataclass), not its identity
_serial_cache = None


def _serial_reference(scale):
    global _serial_cache
    if _serial_cache is None or _serial_cache[0] != scale:
        spec = build_sweep(SCENARIO, scale=scale)
        started = time.monotonic()
        results = SerialExecutor().execute(execute_run_spec, spec.cells)
        _serial_cache = (scale, spec, results, time.monotonic() - started)
    return _serial_cache[1:]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_dist_scaling(benchmark, scale, workers):
    spec, serial, serial_s = _serial_reference(scale)

    def experiment():
        with DistributedExecutor(local_workers=workers) as executor:
            started = time.monotonic()
            results = executor.execute(execute_run_spec, spec.cells)
            return results, time.monotonic() - started

    results, elapsed = run_once(benchmark, experiment)

    cells_per_sec = len(results) / elapsed if elapsed > 0 else float("inf")
    print()
    print(f"dist scaling — {SCENARIO}, {len(spec.cells)} cells, "
          f"{workers} worker(s): {elapsed:.2f}s, {cells_per_sec:.2f} cells/s")
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["n_cells"] = len(spec.cells)
    benchmark.extra_info["cells_per_sec"] = round(cells_per_sec, 3)
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    if workers == 1:
        # one worker runs the cells one after another, as the serial
        # executor does: the difference is the executor's cost per cell
        benchmark.extra_info["overhead_ms_per_cell"] = round(
            1e3 * (elapsed - serial_s) / len(results), 3)

    # determinism contract: bit-identical to serial at every worker count
    assert [r.cell_id for r in results] == [r.cell_id for r in serial]
    for left, right in zip(serial, results):
        assert left.metrics == right.metrics, left.cell_id
