"""Mean-value model of blocking (two-phase locking) systems.

Tay, Goodman & Suri (1985) analyse a closed system of ``n`` transactions,
each requesting ``k`` locks out of a database of ``D`` granules, and show
that the mean number of blocked transactions is (to first order) a quadratic
function of ``n``.  The paper uses two consequences of that analysis:

* thrashing sets in roughly where adding one transaction blocks more than
  one transaction (``db(n)/dn > 1``);
* the rule of thumb ``k^2 n / D < 1.5`` for staying clear of thrashing.

The model here follows the standard first-order derivation:

* a transaction holds on average ``k / 2`` locks while it is active;
* a lock request of one transaction conflicts with a particular other
  transaction with probability ``(k/2) / D``;
* with ``n`` transactions, the probability that a request blocks is
  ``p_block = (n - 1) * k / (2 D)``;
* each transaction issues ``k`` requests, so the expected number of blocking
  events per execution is ``k * p_block = k^2 (n - 1) / (2 D)``;
* the mean number of blocked transactions is approximately the blocking
  rate times the mean blocking duration, which to first order yields the
  quadratic ``b(n) ≈ n * k^2 (n - 1) / (2 D) * w`` with ``w`` the fraction
  of the residence time a blocked transaction waits.

The absolute values of the model are rough (that is exactly the paper's
argument for feedback control instead of open-loop rules), but the
qualitative behaviour -- quadratic growth of blocking, a finite optimal
``n`` -- is what the tests and benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tp.params import SystemParams, WorkloadParams


@dataclass(frozen=True)
class TayModel:
    """First-order mean-value model of a closed locking system."""

    #: number of granules in the database (``D``)
    db_size: int
    #: locks requested per transaction (``k``)
    locks_per_txn: int
    #: mean waiting share: fraction of residence time a blocked txn waits
    waiting_share: float = 0.5

    def __post_init__(self) -> None:
        if self.db_size < 1:
            raise ValueError(f"db_size must be >= 1, got {self.db_size}")
        if self.locks_per_txn < 1:
            raise ValueError(f"locks_per_txn must be >= 1, got {self.locks_per_txn}")
        if not 0.0 < self.waiting_share <= 1.0:
            raise ValueError(f"waiting_share must be in (0, 1], got {self.waiting_share}")

    # ------------------------------------------------------------------
    def conflict_probability(self, n: float) -> float:
        """Probability that one lock request blocks, at concurrency ``n``."""
        if n <= 1:
            return 0.0
        p = (n - 1) * self.locks_per_txn / (2.0 * self.db_size)
        return min(1.0, p)

    def blocking_events_per_txn(self, n: float) -> float:
        """Expected number of times one execution blocks."""
        return self.locks_per_txn * self.conflict_probability(n)

    def blocked_transactions(self, n: float) -> float:
        """Mean number of blocked transactions ``b(n)`` (quadratic in ``n``)."""
        if n <= 1:
            return 0.0
        b = n * self.blocking_events_per_txn(n) * self.waiting_share
        return min(b, max(0.0, n - 1.0))

    def active_transactions(self, n: float) -> float:
        """Mean number of transactions actually running: ``a(n) = n - b(n)``."""
        return max(0.0, n - self.blocked_transactions(n))

    def blocking_derivative(self, n: float, step: float = 1e-3) -> float:
        """Numerical ``db(n)/dn``; thrashing threatens once this exceeds 1."""
        return (self.blocked_transactions(n + step) - self.blocked_transactions(n - step)) / (2 * step)

    def critical_mpl(self) -> float:
        """Concurrency level where ``db(n)/dn`` reaches 1 (thrashing onset).

        For the quadratic first-order model ``b(n) = w k^2 n (n-1) / (2D)``
        the derivative reaches 1 at ``n = (D / (w k^2)) + 1/2``.
        """
        k2 = self.locks_per_txn ** 2
        return self.db_size / (self.waiting_share * k2) + 0.5

    def rule_of_thumb_mpl(self, margin: float = 1.5) -> float:
        """The published rule of thumb: ``n`` such that ``k^2 n / D = margin``."""
        return margin * self.db_size / (self.locks_per_txn ** 2)

    # ------------------------------------------------------------------
    def throughput_curve(self, levels: Sequence[float], service_rate: float = 1.0) -> list:
        """Relative throughput at each concurrency level.

        ``service_rate`` is the completion rate of one *active* transaction;
        the curve is proportional to the number of active (non-blocked)
        transactions until the physical capacity (not modelled here) caps it.
        """
        return [self.active_transactions(n) * service_rate for n in levels]

    def __str__(self) -> str:
        return (
            f"TayModel(D={self.db_size}, k={self.locks_per_txn}, "
            f"critical_mpl={self.critical_mpl():.1f}, "
            f"rule_of_thumb={self.rule_of_thumb_mpl():.1f})"
        )


class TayThroughputModel:
    """Absolute-throughput adapter of :class:`TayModel` for one system.

    :class:`TayModel` reasons in *relative* units (active transactions per
    unit service rate); the experiment layer needs the same interface the
    OCC fixed point offers — ``throughput(mpl)`` in committed transactions
    per second and ``optimal_mpl()`` — so locking-family series can carry a
    Tay-based model reference instead of the OCC one.

    Calibration, both pieces read off the physical parameters:

    * the **service rate** of one active (non-blocked) transaction is the
      reciprocal of its uncontended cycle time (CPU + disk demand of the
      ``k + 2`` phases); throughput is capped by the CPU capacity
      ``m / cpu_demand`` exactly as in the OCC model's congestion step;
    * the **waiting share** ``w`` — the fraction of residence time a
      blocked transaction spends waiting — defaults to ``0.5``: a lock
      request conflicts with a holder uniformly far through its execution,
      so the victim waits the holder's mean residual residence, half a
      cycle.  Override it to recalibrate against measured blocking.
    """

    def __init__(self, params: "SystemParams",
                 workload: Optional["WorkloadParams"] = None,
                 waiting_share: float = 0.5):
        self.params = params
        self.workload = workload or params.workload
        w = self.workload
        self.tay = TayModel(
            db_size=w.db_size,
            locks_per_txn=max(1, int(round(w.accesses_per_txn))),
            waiting_share=waiting_share,
        )
        modelled = params.with_changes(workload=w)
        self._cpu_demand = modelled.cpu_demand_per_execution
        self._disk_demand = modelled.disk_demand_per_execution

    # ------------------------------------------------------------------
    def throughput(self, mpl: float) -> float:
        """Committed transactions per second at multiprogramming level ``mpl``."""
        cycle = self._cpu_demand + self._disk_demand
        if mpl <= 0 or cycle <= 0:
            return 0.0
        active = self.tay.active_transactions(mpl)
        rate = active / cycle
        if self._cpu_demand > 0:
            rate = min(rate, self.params.n_cpus / self._cpu_demand)
        return rate

    def throughput_curve(self, levels: Sequence[float]) -> list:
        """Throughput at each level in ``levels``."""
        return [self.throughput(level) for level in levels]

    def optimal_mpl(self, resolution: int = 64) -> float:
        """The *smallest* MPL that maximises the modelled throughput.

        Active transactions ``a(n) = n - b(n)`` peak at the Tay critical
        MPL, but the CPU capacity cap can flatten the curve earlier; a
        coarse scan over ``[1, 1.5 * critical]`` returns the first
        maximiser — the level a controller should hold, since any higher
        one buys no throughput and more blocking.
        """
        upper = max(2.0, 1.5 * self.tay.critical_mpl())
        levels = [1.0 + (upper - 1.0) * i / (resolution - 1) for i in range(resolution)]
        values = [self.throughput(level) for level in levels]
        peak = max(values)
        return next(level for level, value in zip(levels, values)
                    if value >= peak - 1e-12)

    def __str__(self) -> str:
        return (
            f"TayThroughputModel({self.tay}, cycle="
            f"{self._cpu_demand + self._disk_demand:.3f}s)"
        )
