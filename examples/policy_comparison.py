#!/usr/bin/env python3
"""Compare every load-control policy on a workload that shifts twice.

Section 1 of the paper lists the alternatives to feedback control: doing
nothing, a fixed administrator-tuned bound, and theoretically derived rules
of thumb.  This example runs all of them — plus the paper's IS and PA
controllers — through a workload whose transaction size changes twice.

The policies are independent simulation cells, so the example delegates to
the parallel runner: ``--workers N`` fans the policies out over N local
dist worker processes (identical results to serial), and ``--replicates R`` runs each
policy R times with independent replicate seeds and reports mean ± 95% CI.
It also demonstrates two optional features of the framework:

* the outer control loop (automatic sizing of the measurement interval), and
* the displacement policy (aborting transactions when the threshold drops
  far below the current load).

Run with:  python examples/policy_comparison.py [--quick] [--workers N] [--replicates R]
"""

import argparse

from repro.core import DisplacementPolicy, MeasurementIntervalTuner, VictimCriterion
from repro.experiments import ExperimentScale, default_system_params
from repro.experiments.report import format_aggregate_table, format_table
from repro.runner import (
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    SweepSpec,
    run_sweep,
    tracking_results,
)
from repro.tp.workload import StepSchedule


def policies():
    return {
        "no control": ControllerSpec.make("no_control"),
        "fixed limit (20)": ControllerSpec.make("fixed", limit=20),
        "Tay rule": ControllerSpec.make("tay"),
        "Iyer rule": ControllerSpec.make("iyer"),
        "Incremental Steps": ControllerSpec.make(
            "incremental_steps", initial_limit=20, beta=1.0, gamma=5, delta=10,
            min_step=2.0, lower_bound=2),
        "Parabola Approximation": ControllerSpec.make(
            "parabola", initial_limit=20, forgetting=0.9, probe_amplitude=3.0,
            max_move=30.0, lower_bound=2),
    }


def build_sweep_spec(params, scale, scenario):
    """One tracking cell per policy, plus the displacement + outer-loop demo."""
    all_policies = policies()
    cells = [
        RunSpec(kind=KIND_TRACKING, cell_id=f"policies/{name}", params=params,
                scale=scale, controller=spec, scenario=scenario, label=name)
        for name, spec in all_policies.items()
    ]
    special = "PA + displacement + outer loop"
    cells.append(RunSpec(
        kind=KIND_TRACKING,
        cell_id=f"policies/{special}",
        params=params,
        scale=scale,
        # same PA parameterisation as the plain row, so the comparison
        # isolates the displacement + outer-loop effect
        controller=all_policies["Parabola Approximation"],
        scenario=scenario,
        label=special,
        displacement=DisplacementPolicy(criterion=VictimCriterion.YOUNGEST, hysteresis=5),
        interval_tuner=MeasurementIntervalTuner(target_departures=150, min_interval=0.5,
                                                max_interval=10.0),
    ))
    return SweepSpec(name="policy_comparison", cells=tuple(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a shorter simulation")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial; results are identical)")
    parser.add_argument("--replicates", type=int, default=1,
                        help="replicates per policy (>1 reports mean ± 95%% CI)")
    arguments = parser.parse_args()
    scale = ExperimentScale.smoke() if arguments.quick else ExperimentScale.benchmark()
    horizon = scale.tracking_horizon

    params = default_system_params(seed=19).with_changes(n_terminals=250)
    # transaction size: 6 accesses, then 12, then back to 4
    schedule = StepSchedule(initial=6, steps=[(horizon / 3, 12), (2 * horizon / 3, 4)])
    scenario = ("accesses", schedule)

    print(f"Workload: k = 6 -> 12 (at t={horizon / 3:.0f}s) -> 4 (at t={2 * horizon / 3:.0f}s), "
          f"{params.n_terminals} terminals, horizon {horizon:.0f}s, "
          f"workers={arguments.workers}, replicates={arguments.replicates}\n")

    sweep = build_sweep_spec(params, scale, scenario)
    result = run_sweep(sweep, workers=arguments.workers,
                       replicates=max(1, arguments.replicates))

    rows = []
    for name, tracking in tracking_results(result).items():
        rows.append([
            name,
            tracking.total_commits,
            tracking.total_commits / horizon,
            tracking.mean_response_time,
            tracking.restart_ratio,
        ])
        print(f"  finished: {name:<32} commits={tracking.total_commits}")

    print()
    print(format_table(
        ["policy", "commits", "throughput [txn/s]", "mean response [s]", "restarts/commit"],
        rows))

    if result.replicates > 1:
        print(f"\nReplicated summaries ({result.replicates} replicates, mean ± 95% CI):")
        print(format_aggregate_table(result.aggregates))

    print("\nThe static policies depend on how well their single setting matches the")
    print("current workload; the feedback controllers adapt to every shift without")
    print("knowing the workload parameters at all (Section 1, option 4).")


if __name__ == "__main__":
    main()
