"""Ablation (Section 1): feedback control vs. the non-adaptive alternatives.

Section 1 lists the alternatives to feedback control: do nothing, a fixed
upper bound tuned by the administrator, and theoretically derived rules of
thumb (Tay, Iyer).  The paper argues these are inadequate when the workload
changes.  This ablation runs all six policies through the same workload jump
(transaction size doubles mid-run) on a reduced configuration and compares
the useful work they deliver.

Expectations encoded as assertions:

* every admission-controlled policy beats "do nothing";
* the adaptive feedback controllers (IS, PA) are competitive with the best
  policy overall (within 25%), without knowing the workload parameters.
"""

from conftest import run_once

from repro.experiments.config import default_system_params
from repro.experiments.dynamic import jump_scenario
from repro.experiments.report import format_table
from repro.runner import ControllerSpec, run_sweep, tracking_results, tracking_sweep_spec
from repro.tp.params import WorkloadParams


def _policies():
    return [
        ("no control", ControllerSpec.make("no_control")),
        ("fixed limit (tuned for small txns)", ControllerSpec.make("fixed", limit=40)),
        ("tay rule", ControllerSpec.make("tay")),
        ("iyer rule", ControllerSpec.make("iyer")),
        ("incremental steps", ControllerSpec.make(
            "incremental_steps", initial_limit=20, beta=1.0, gamma=5, delta=10,
            min_step=2.0, lower_bound=2)),
        ("parabola approximation", ControllerSpec.make(
            "parabola", initial_limit=20, forgetting=0.9, probe_amplitude=3.0,
            max_move=30.0, lower_bound=2)),
    ]


def test_ablation_controllers_vs_baselines(benchmark, scale, workers, replicates):
    base = default_system_params(seed=29)
    params = base.with_changes(
        n_terminals=250,
        workload=WorkloadParams(db_size=2000, accesses_per_txn=6,
                                query_fraction=0.25, write_fraction=0.5))
    scenario = jump_scenario("accesses", 6, 12, jump_time=scale.tracking_horizon / 2.0)

    def experiment():
        spec = tracking_sweep_spec("ablation_baselines", scale, params, _policies(), scenario)
        sweep_result = run_sweep(spec, workers=workers, replicates=replicates)
        return {
            name: {
                "commits": result.total_commits,
                "mean_response_time": result.mean_response_time,
                "mean_throughput": result.trace.mean_throughput(),
            }
            for name, result in tracking_results(sweep_result).items()
        }

    rows = run_once(benchmark, experiment)

    print()
    print("Ablation — load-control policies under a workload jump")
    print(format_table(
        ["policy", "commits", "mean throughput", "mean response time"],
        [[name, row["commits"], row["mean_throughput"], row["mean_response_time"]]
         for name, row in rows.items()]))

    for name, row in rows.items():
        benchmark.extra_info[f"{name} commits"] = row["commits"]

    best = max(row["commits"] for row in rows.values())
    no_control = rows["no control"]["commits"]
    for name in ("incremental steps", "parabola approximation", "iyer rule", "tay rule",
                 "fixed limit (tuned for small txns)"):
        assert rows[name]["commits"] >= no_control, f"{name} did worse than doing nothing"
    for name in ("incremental steps", "parabola approximation"):
        assert rows[name]["commits"] >= 0.75 * best, (
            f"{name} fell more than 25% behind the best policy")
