"""Displacement: enforcing a lowered threshold by aborting transactions.

Section 4.3: "Changing transaction behavior may lead to a situation where
the controller suggests a new ``n*`` well below the current load ``n``.
Here we have two options: (i) merely use admission control and hope that by
normal departures the load will drop below ``n*`` soon; (ii) in addition to
admission control, instantaneously enforce the new threshold by aborting as
many active transactions as necessary.  (Victim selection may be based on
the same criteria as for deadlock breaking.)  Because aborting transactions
always means wastage of system resources this approach is justified only if
the responsiveness of the controller cannot be achieved otherwise."

The paper's experiments used admission control only; displacement is
implemented here so the trade-off can be studied (and because the paper
recommends keeping it "as a last resort").  The policy is passive plain
data: it only *selects* victims; the transaction system applies the aborts
by interrupting the victims' processes, and the measurement process counts
them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.tp.transaction import Transaction


class VictimCriterion(enum.Enum):
    """Victim selection criteria (mirroring common deadlock-victim rules)."""

    #: abort the most recently admitted transactions first (least sunk cost)
    YOUNGEST = "youngest"
    #: abort the oldest transactions first
    OLDEST = "oldest"
    #: abort the transactions that touched the fewest granules so far
    LEAST_WORK = "least_work"
    #: abort read-only queries before updaters, then youngest first
    QUERIES_FIRST = "queries_first"


@dataclass(frozen=True)
class DisplacementPolicy:
    """Selects which active transactions to abort to enforce a new threshold.

    ``hysteresis`` delays displacement until the overshoot exceeds the
    given number of transactions; small controller-induced oscillations of
    the threshold then never trigger aborts (Section 4.3 notes that not
    displacing has "a smoothing effect ... that supports controller
    stability").
    """

    criterion: VictimCriterion = VictimCriterion.YOUNGEST
    enabled: bool = True
    hysteresis: float = 0.0

    def __post_init__(self) -> None:
        if self.hysteresis < 0:
            raise ValueError(f"hysteresis must be non-negative, got {self.hysteresis}")
        object.__setattr__(self, "hysteresis", float(self.hysteresis))

    # ------------------------------------------------------------------
    def select_victims(self, active: Sequence["Transaction"], new_limit: float) -> List["Transaction"]:
        """Return the transactions to abort so that ``len(active) <= new_limit``.

        The returned list is empty when displacement is disabled or the
        overshoot is within the hysteresis band.
        """
        if not self.enabled:
            return []
        if math.isinf(new_limit):
            return []
        overshoot = len(active) - int(math.floor(new_limit))
        if overshoot <= self.hysteresis:
            return []
        ordered = sorted(active, key=self._victim_key(), reverse=True)
        return ordered[:overshoot]

    def _victim_key(self) -> Callable[["Transaction"], tuple]:
        """Sort key: transactions sorted by this key descending are victims first."""
        if self.criterion is VictimCriterion.YOUNGEST:
            return lambda txn: (txn.admitted_at if txn.admitted_at is not None else -math.inf,)
        if self.criterion is VictimCriterion.OLDEST:
            return lambda txn: (-(txn.admitted_at if txn.admitted_at is not None else math.inf),)
        if self.criterion is VictimCriterion.LEAST_WORK:
            return lambda txn: (-(len(txn.read_set) + len(txn.write_set)),)
        # QUERIES_FIRST: read-only first, then youngest
        return lambda txn: (
            1 if txn.is_read_only else 0,
            txn.admitted_at if txn.admitted_at is not None else -math.inf,
        )
