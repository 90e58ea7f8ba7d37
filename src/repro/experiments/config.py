"""Experiment configuration: system presets and scale knobs.

The paper's figures were produced with long simulation runs at offered loads
of up to 800 terminals.  Re-running at that size is possible but slow in a
pure-Python discrete-event simulator, so every experiment accepts an
:class:`ExperimentScale` that shrinks the horizon and the sweep while
preserving the qualitative shape.  Three presets are provided:

* ``ExperimentScale.smoke()`` -- seconds per experiment; used by unit and
  integration tests.
* ``ExperimentScale.benchmark()`` -- the default for the benchmark harness;
  tens of seconds for the full suite.
* ``ExperimentScale.paper()`` -- the full-size runs (offered loads to 800,
  horizons of hundreds of simulated seconds) for reproducing the figures at
  the paper's scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.tp.params import SystemParams, WorkloadParams


def default_system_params(seed: int = 1) -> SystemParams:
    """The standard configuration used across experiments.

    The values follow the structure of the configurations Yu et al. (1987)
    derive from customer traces (moderate transaction sizes, a few
    processors, database of a few thousand granules) and are tuned so that
    the CPU saturates around a multiprogramming level of a few tens and
    data-contention thrashing appears well inside the studied load range.
    """
    return SystemParams(
        n_terminals=200,
        think_time=1.0,
        n_cpus=4,
        cpu_init=0.005,
        cpu_per_access=0.005,
        cpu_commit=0.005,
        disk_per_access=0.02,
        disk_commit=0.02,
        restart_delay=0.01,
        stochastic_cpu=True,
        seed=seed,
        workload=WorkloadParams(
            db_size=4000,
            accesses_per_txn=8,
            query_fraction=0.25,
            write_fraction=0.5,
        ),
    )


def contention_bound_params(seed: int = 1) -> SystemParams:
    """A configuration whose throughput optimum *moves* with the workload.

    The stationary experiments (Figures 1 and 12) use
    :func:`default_system_params`, where CPU and disk demands both scale with
    the transaction size ``k``, so the optimal multiprogramming level barely
    moves when ``k`` changes.  The dynamic experiments (Figures 13 and 14)
    need the opposite: a jump of one workload parameter must shift the
    position of the optimum substantially, otherwise there is nothing for
    the controller to track.

    In this preset the CPU demand is dominated by a fixed per-transaction
    overhead while the residence time is dominated by per-access disk time.
    The processors therefore saturate at a multiprogramming level of roughly
    ``m * (1 + disk/cpu)``, which grows with ``k``; doubling or halving the
    number of accesses per transaction moves the optimum by a factor of
    about two, and beyond the optimum certification conflicts (database of
    2000 granules) make the throughput fall off -- the moving mountain ridge
    of Figure 2.
    """
    return SystemParams(
        n_terminals=400,
        think_time=0.5,
        n_cpus=16,
        cpu_init=0.040,
        cpu_per_access=0.001,
        cpu_commit=0.005,
        disk_per_access=0.025,
        disk_commit=0.010,
        restart_delay=0.01,
        stochastic_cpu=True,
        seed=seed,
        workload=WorkloadParams(
            db_size=2000,
            accesses_per_txn=8,
            query_fraction=0.25,
            write_fraction=0.5,
        ),
    )


@dataclass(frozen=True)
class ExperimentScale:
    """How big the runs are; all experiments accept one of these."""

    #: simulated seconds per stationary point (after warm-up)
    stationary_horizon: float
    #: simulated warm-up seconds discarded before measuring
    warmup: float
    #: offered loads (numbers of terminals) for the stationary sweeps
    offered_loads: Sequence[int]
    #: simulated seconds of a dynamic tracking run
    tracking_horizon: float
    #: measurement interval of the load controller during tracking runs
    measurement_interval: float
    #: steps of a synthetic-plant tracking run
    synthetic_steps: int

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny runs for tests: shape only, large statistical error."""
        return cls(
            stationary_horizon=8.0,
            warmup=2.0,
            offered_loads=(25, 100, 300),
            tracking_horizon=60.0,
            measurement_interval=2.0,
            synthetic_steps=120,
        )

    @classmethod
    def benchmark(cls) -> "ExperimentScale":
        """Default benchmark size: minutes for the whole suite."""
        return cls(
            stationary_horizon=25.0,
            warmup=5.0,
            offered_loads=(25, 50, 100, 200, 400, 600, 800),
            tracking_horizon=150.0,
            measurement_interval=2.5,
            synthetic_steps=400,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Full-size runs approximating the paper's figures."""
        return cls(
            stationary_horizon=120.0,
            warmup=20.0,
            offered_loads=(50, 100, 200, 300, 400, 500, 600, 700, 800),
            tracking_horizon=1000.0,
            measurement_interval=5.0,
            synthetic_steps=1000,
        )


#: the names of the :class:`ExperimentScale` presets, smallest first
SCALE_PRESETS = ("smoke", "benchmark", "paper")


def scale_preset(name: str) -> ExperimentScale:
    """The :class:`ExperimentScale` preset called ``name``."""
    if name not in SCALE_PRESETS:
        raise ValueError(
            f"unknown scale preset {name!r}; the presets are {', '.join(SCALE_PRESETS)}"
        )
    return getattr(ExperimentScale, name)()
