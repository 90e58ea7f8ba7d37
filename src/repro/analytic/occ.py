"""Fixed-point model of the optimistic (certification) system.

The simulation resolves data contention by aborting and re-running
transactions; this module provides a fast analytical approximation of the
same system so that

* tests can check that the simulator's load/throughput curve has the
  predicted shape (rise, saturate, fall),
* the dynamic-tracking experiments can compute a *reference* optimum
  ``n_opt(t)`` for the workload parameters in effect at any time without
  running a sweep of full simulations, and
* the stationary benchmark can report a model-vs-simulation comparison.

Model (standard closed-network mean-value reasoning, in the spirit of
Dan et al. 1988 and Thomasian & Ryu 1990, simplified):

For a multiprogramming level ``n``:

1. CPU time per execution is ``c = cpu_init + k*cpu_access + cpu_commit``;
   disk time per execution is ``d`` (uncontended, constant).
2. With ``m`` processors and ``n`` concurrent transactions, the CPU
   congestion is approximated with the classic machine-repairman style
   factor: effective CPU residence ``c_eff = c * max(1, n * u / m)`` is
   captured implicitly by bounding the execution completion rate by the CPU
   capacity ``m / c``.
3. Let ``X_e`` be the *execution* completion rate (runs per second,
   committed or not).  Residence time of one run is then roughly
   ``r = n / X_e`` (Little's law inside the processing system).
4. An execution fails certification with probability
   ``q = 1 - exp(-lambda_conflict * r)`` where
   ``lambda_conflict = X_c * p_pair`` is the rate at which *commits* of
   other transactions invalidate this one's read set, ``X_c = (1-q) X_e``
   the commit rate and ``p_pair ≈ k_r * k_w / D`` the probability that one
   committing updater's write set hits this transaction's read set.
5. Useful throughput is ``T(n) = (1 - q) * X_e``.

Equations 3-5 are mutually dependent; :meth:`OccModel.evaluate` solves them
by damped fixed-point iteration.  The resulting ``T(n)`` rises roughly
linearly, saturates near ``m / c`` and decreases once the wasted re-runs
dominate -- the Figure 1 shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.tp.params import SystemParams, WorkloadParams


@dataclass(frozen=True)
class OccOperatingPoint:
    """Solution of the fixed point at one multiprogramming level."""

    #: multiprogramming level the point was evaluated at
    mpl: float
    #: useful (committed) transactions per second
    throughput: float
    #: execution rate including re-runs
    execution_rate: float
    #: probability that one execution fails certification
    abort_probability: float
    #: mean residence time of one execution
    residence_time: float
    #: fraction of CPU capacity spent on work that is later discarded
    wasted_cpu_fraction: float


class OccModel:
    """Analytic load/throughput model of the certification-based system."""

    def __init__(self, params: SystemParams, workload: Optional[WorkloadParams] = None):
        self.params = params
        self.workload = workload or params.workload
        # the demands of the modelled workload; ``params`` stays as passed,
        # since optimal_mpl brackets its search by the base workload
        modelled = params.with_changes(workload=self.workload)
        self._cpu_demand = modelled.cpu_demand_per_execution
        self._disk_demand = modelled.disk_demand_per_execution

    # ------------------------------------------------------------------
    # workload-derived coefficients
    # ------------------------------------------------------------------
    def _conflict_coefficient(self) -> float:
        """Probability that one committing updater invalidates a given run."""
        w = self.workload
        k = w.accesses_per_txn
        updater_fraction = 1.0 - w.query_fraction
        writes_per_updater = max(w.write_fraction * k, 1.0 if w.write_fraction > 0 else 0.0)
        if updater_fraction <= 0.0 or writes_per_updater <= 0.0:
            return 0.0
        # a committing updater writes `writes_per_updater` granules; each hits
        # this transaction's read set (size k) with probability k / D
        pair_probability = 1.0 - (1.0 - k / w.db_size) ** writes_per_updater
        return updater_fraction * min(1.0, pair_probability)

    # ------------------------------------------------------------------
    def evaluate(self, mpl: float, iterations: int = 200, damping: float = 0.5,
                 tolerance: float = 1e-9) -> OccOperatingPoint:
        """Solve the fixed point at multiprogramming level ``mpl``."""
        if mpl <= 0:
            return OccOperatingPoint(mpl, 0.0, 0.0, 0.0, 0.0, 0.0)
        cpu = self._cpu_demand
        disk = self._disk_demand
        m = self.params.n_cpus
        conflict = self._conflict_coefficient()
        cpu_capacity = m / cpu if cpu > 0 else math.inf

        # initial guess: no contention at all
        abort_probability = 0.0
        execution_rate = min(mpl / max(cpu + disk, 1e-12), cpu_capacity)
        for _ in range(iterations):
            residence = mpl / max(execution_rate, 1e-12)
            commit_rate = (1.0 - abort_probability) * execution_rate
            new_abort = 1.0 - math.exp(-conflict * commit_rate * residence) if conflict > 0 else 0.0
            # CPU queueing: the execution rate cannot exceed the CPU capacity,
            # and when below capacity it is set by the uncontended cycle time
            uncontended_rate = mpl / max(cpu + disk, 1e-12)
            new_execution = min(uncontended_rate, cpu_capacity)
            # damped update for stability of the fixed point
            next_abort = (1 - damping) * abort_probability + damping * new_abort
            next_execution = (1 - damping) * execution_rate + damping * new_execution
            if (abs(next_abort - abort_probability) < tolerance
                    and abs(next_execution - execution_rate) < tolerance):
                abort_probability, execution_rate = next_abort, next_execution
                break
            abort_probability, execution_rate = next_abort, next_execution

        throughput = (1.0 - abort_probability) * execution_rate
        residence = mpl / max(execution_rate, 1e-12)
        wasted = abort_probability  # share of runs whose CPU work is discarded
        return OccOperatingPoint(
            mpl=mpl,
            throughput=throughput,
            execution_rate=execution_rate,
            abort_probability=abort_probability,
            residence_time=residence,
            wasted_cpu_fraction=wasted,
        )

    def throughput(self, mpl: float) -> float:
        """Useful throughput at multiprogramming level ``mpl``."""
        return self.evaluate(mpl).throughput

    def throughput_curve(self, levels: Sequence[float]) -> list:
        """Throughput at each level in ``levels``."""
        return [self.throughput(level) for level in levels]

    # ------------------------------------------------------------------
    def optimal_mpl(self, lower: float = 1.0, upper: Optional[float] = None,
                    resolution: int = 64) -> float:
        """Multiprogramming level that maximises the modelled throughput.

        Golden-section search over [lower, upper] after a coarse scan; the
        modelled curve is unimodal by construction, matching the paper's
        Section 3 assumption.
        """
        if upper is None:
            upper = max(4.0 * self.params.saturation_mpl(), lower + 1.0)
        # coarse scan to bracket the maximum
        levels = [lower + (upper - lower) * i / (resolution - 1) for i in range(resolution)]
        values = [self.throughput(level) for level in levels]
        best_index = max(range(len(values)), key=values.__getitem__)
        lo = levels[max(0, best_index - 1)]
        hi = levels[min(len(levels) - 1, best_index + 1)]
        # golden-section refinement
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = self.throughput(c), self.throughput(d)
        for _ in range(60):
            if b - a < 1e-3:
                break
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = self.throughput(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = self.throughput(d)
        return (a + b) / 2.0

    def optimal_point(self) -> OccOperatingPoint:
        """The operating point at the modelled optimum."""
        return self.evaluate(self.optimal_mpl())
