#!/usr/bin/env python3
"""Reproduce the Figure 1 / Figure 12 story at the command line.

Sweeps the offered load (number of terminals) over a wide range and measures
the throughput of three configurations:

* without any load control (the thrashing curve of Figure 1),
* with the Incremental Steps controller,
* with the Parabola Approximation controller,

then prints the Figure 12 style table and the analytic model's view of the
same system for comparison.

Run with:  python examples/thrashing_demo.py [--quick]
"""

import argparse

from repro.analytic import OccModel, classify_phases, thrashing_onset
from repro.experiments import ExperimentScale, default_system_params, format_sweep_table
from repro.runner import run_sweep, stationary_sweeps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use the small smoke-test scale instead of the benchmark scale")
    arguments = parser.parse_args()
    scale = ExperimentScale.smoke() if arguments.quick else ExperimentScale.benchmark()
    params = default_system_params(seed=13)

    print("Measuring the load/throughput curves (this runs full simulations)...\n")
    # the Figure 12 grid: uncontrolled, IS with the registry defaults (steps
    # from a limit of 10, beta 1, gamma 5, delta 10) and PA (probes +-3
    # around 10 with forgetting 0.9); both keep the limit in [2, offered load]
    without, with_is, with_pa = stationary_sweeps(
        run_sweep("fig12_stationary", scale=scale, base_params=params)).values()

    print("Figure 12 — system throughput with and without control (stationary case)")
    print(format_sweep_table([without, with_is, with_pa]))

    curve = without.curve()
    phases = classify_phases(curve)
    onset = thrashing_onset(curve, drop_fraction=0.1)
    print(f"\nUncontrolled curve: peak {phases.peak_throughput:.1f} txn/s at offered load "
          f"{phases.optimum_load:.0f}; throughput has dropped by >10% at load {onset:.0f}.")

    model = OccModel(params)
    optimum = model.optimal_mpl()
    print(f"Analytic OCC model: optimal multiprogramming level ≈ {optimum:.0f}, "
          f"predicted peak throughput ≈ {model.throughput(optimum):.1f} txn/s.")
    print("\nBoth controllers hold the heavy-load throughput near the peak — the")
    print("'with control' columns stay flat while the uncontrolled column collapses.")


if __name__ == "__main__":
    main()
