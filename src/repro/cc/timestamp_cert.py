"""Optimistic concurrency control by timestamp certification.

This is the scheme used in the paper's simulation model (Section 7): an
optimistic, non-blocking protocol in which conflicts are resolved by
aborting and restarting one of the involved transactions.  The particular
variant is *backward-oriented certification* with commit-time validation
(Bernstein, Hadzilacos & Goodman 1987, ch. 4):

* every execution receives a start timestamp when it begins;
* reads and writes proceed without any blocking, the scheme only records
  the read and write sets;
* at commit time the transaction is *certified*: it may commit only if no
  granule it read was overwritten by a transaction that committed after the
  certifying transaction started (its reads would not be serializable
  otherwise), and none of the granules it wants to write was read or written
  by a concurrently committed transaction after its start;
* on successful certification the write timestamps of the written granules
  are advanced to the commit timestamp.

The scheme maintains only two maps (granule -> last committed read/write
timestamp), so memory stays bounded regardless of run length.

Why this reproduces the paper's behaviour: the probability that a
transaction fails certification grows with the number of commits that happen
during its residence time, which itself grows with the concurrency level.
Restarted executions consume physical resources without contributing useful
work, so beyond a critical multiprogramming level the throughput *decreases*
with additional load -- exactly the thrashing behaviour of Figure 1 that the
load controller must prevent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.cc.base import AbortReason, ConcurrencyControl
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.tp.transaction import Transaction


class TimestampCertification(ConcurrencyControl):
    """Backward-oriented optimistic certification (non-blocking CC)."""

    name = "timestamp-certification"

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: granule -> timestamp of the latest committed write
        self._write_ts: Dict[int, float] = {}
        #: granule -> timestamp of the latest committed read
        self._read_ts: Dict[int, float] = {}
        #: logical commit counter used to break timestamp ties deterministically
        self._commit_counter = 0

    # ------------------------------------------------------------------
    def begin(self, txn: "Transaction") -> None:
        """Stamp the execution with the current time as its start timestamp."""
        txn.cc_state["start_ts"] = self.sim.now

    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Record the access; optimistic schemes never block."""
        txn.record_access(item, is_write)
        return None

    def try_commit(self, txn: "Transaction") -> bool:
        """Backward certification against transactions committed meanwhile."""
        start_ts = txn.cc_state.get("start_ts")
        if start_ts is None:
            raise RuntimeError(
                f"transaction {txn.txn_id} certified without begin() being called"
            )
        conflicts = 0
        for item in txn.read_set:
            committed_write = self._write_ts.get(item)
            if committed_write is not None and committed_write > start_ts:
                conflicts += 1
        for item in txn.write_set:
            committed_read = self._read_ts.get(item)
            if committed_read is not None and committed_read > start_ts:
                conflicts += 1
        txn.last_conflicts = conflicts
        return not conflicts

    def finish(self, txn: "Transaction") -> None:
        """Install the transaction's writes at the commit timestamp."""
        self._commit_counter += 1
        # Strictly increasing commit timestamps even when several commits
        # happen at the same simulated instant.
        commit_ts = self.sim.now + self._commit_counter * 1e-12
        for item in txn.write_set:
            existing = self._write_ts.get(item, float("-inf"))
            if commit_ts > existing:
                self._write_ts[item] = commit_ts
        for item in txn.read_set:
            existing = self._read_ts.get(item, float("-inf"))
            if commit_ts > existing:
                self._read_ts[item] = commit_ts

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Nothing to undo: optimistic executions leave no shared state."""
