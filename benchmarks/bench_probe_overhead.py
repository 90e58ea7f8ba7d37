"""Probe overhead: the in-sim probes must observe without perturbing.

The observability layer (``repro.obs``) promises two things the goldens
cannot check at full experiment scale:

* **trajectory preservation** — a probed run commits and aborts exactly
  the transactions an unprobed run does (the probes never draw random
  numbers or mutate model state);
* **bounded overhead** — the per-event cost of the ``None``-check slot
  plus the observer hooks stays a small multiple of the unprobed run.

This benchmark runs the ``probe_calibration`` workload's heaviest cell
twice — no observers, then all seven probes as observers — asserts
bit-equal commit/abort counts and throughput, and attaches the wall-clock
overhead ratio to ``extra_info`` so regressions show up in the BENCH
artifacts.
"""

import time

from conftest import run_once

from repro.cc.registry import CCSpec
from repro.experiments.config import default_system_params
from repro.experiments.stationary import run_stationary_point
from repro.obs.probes import PROBE_NAMES


def _run(scale, observers):
    base = default_system_params(seed=47)
    base = base.with_changes(
        n_terminals=max(scale.offered_loads),
        workload=base.workload.with_changes(db_size=1500, write_fraction=0.6),
    )
    started = time.perf_counter()
    point = run_stationary_point(
        base,
        horizon=scale.stationary_horizon,
        warmup=scale.warmup,
        measurement_interval=scale.measurement_interval,
        cc=CCSpec.make("two_phase_locking", victim_policy="youngest"),
        observers=observers,
    )
    return point, time.perf_counter() - started


def test_probes_preserve_trajectories_with_bounded_overhead(benchmark, scale):
    baseline, baseline_seconds = _run(scale, observers=())

    def experiment():
        return _run(scale, observers=PROBE_NAMES)

    probed, probed_seconds = run_once(benchmark, experiment)

    # the core promise: observation does not perturb the simulation
    assert probed.commits == baseline.commits
    assert probed.aborts_by_reason == baseline.aborts_by_reason
    assert probed.throughput == baseline.throughput

    # and it actually measured something on this contended 2PL workload
    assert probed.observed["probe_lock_wait_count"] > 0
    assert 0.0 < probed.observed["probe_lock_wait_share"] <= 1.0

    overhead = probed_seconds / baseline_seconds if baseline_seconds > 0 else 1.0
    benchmark.extra_info["baseline_seconds"] = round(baseline_seconds, 4)
    benchmark.extra_info["probed_seconds"] = round(probed_seconds, 4)
    benchmark.extra_info["overhead_ratio"] = round(overhead, 3)
    benchmark.extra_info["lock_wait_share"] = round(
        probed.observed["probe_lock_wait_share"], 4)
    print()
    print(f"probe overhead: {baseline_seconds:.3f}s unprobed -> "
          f"{probed_seconds:.3f}s probed ({overhead:.2f}x), "
          f"measured wait share "
          f"{probed.observed['probe_lock_wait_share']:.3f}")
