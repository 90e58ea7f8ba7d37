"""Optimistic concurrency control with forward validation.

The paper's own simulation uses *backward*-oriented certification
(:mod:`repro.cc.timestamp_cert`): a committing transaction checks its reads
against the writes of transactions that committed since it started.  This
module provides the complementary *forward*-oriented variant (Härder 1984;
Bernstein, Hadzilacos & Goodman 1987, ch. 4): a committing transaction
validates its **write set against the current read sets of the
transactions still in their read phase** and invalidates every overlapping
one — the validator itself always commits (unless it was invalidated by an
earlier committer first).

Differences that matter for the load-control experiments:

* Forward validation is strictly less pessimistic than the backward scheme
  in this model: a running transaction conflicts only if it *already* read
  a granule the committer overwrites.  A read performed after the commit
  simply observes the new state and serialises after the committer, while
  backward certification charges every committed write since the reader's
  start timestamp against it, whenever the read happened.
* Conflicts still surface as aborts + restarts (the invalidated victim
  aborts at its own certification point), so data contention is converted
  into resource contention exactly as Section 7 requires and thrashing
  appears beyond the optimal multiprogramming level — the scheme slots
  into the same analytic reference (:class:`repro.analytic.occ.OccModel`)
  as the backward variant.

The invalidation is *lazy*: a doomed transaction keeps executing until its
own ``try_commit`` and only then aborts.  That is the standard kill-based
forward validation for this kind of abstract model — eager aborts would
need an interrupt channel into the victim's process and would only shift
when the wasted work stops, not whether it happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.cc.base import AbortReason, ConcurrencyControl
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.tp.transaction import Transaction


class OccForwardValidation(ConcurrencyControl):
    """Forward-oriented optimistic validation (non-blocking CC)."""

    name = "occ-forward-validation"

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: txn_id -> live transaction record (its read set grows in place)
        self._active: Dict[int, "Transaction"] = {}
        #: txn_id -> conflicts charged by committers that invalidated it
        self._invalidated: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def begin(self, txn: "Transaction") -> None:
        """A fresh execution enters its read phase with a clean slate."""
        self._active[txn.txn_id] = txn
        self._invalidated.pop(txn.txn_id, None)

    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Record the access; optimistic schemes never block."""
        txn.record_access(item, is_write)
        return None

    def try_commit(self, txn: "Transaction") -> bool:
        """Commit unless invalidated; invalidate overlapping readers."""
        charged = self._invalidated.pop(txn.txn_id, None)
        if charged is not None:
            txn.last_conflicts = charged
            return False
        txn.last_conflicts = 0
        if txn.write_set:
            for other_id, other in self._active.items():
                if other_id == txn.txn_id:
                    continue
                overlap = len(txn.write_set & other.read_set)
                if overlap:
                    self._invalidated[other_id] = (
                        self._invalidated.get(other_id, 0) + overlap)
        return True

    def finish(self, txn: "Transaction") -> None:
        """The committed transaction leaves the validator's scope."""
        self._active.pop(txn.txn_id, None)
        self._invalidated.pop(txn.txn_id, None)

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Abandoned executions leave no shared state behind."""
        self._active.pop(txn.txn_id, None)
        self._invalidated.pop(txn.txn_id, None)
