"""Multiversion concurrency control: snapshot isolation.

The paper's load-control results are measured over serializable schemes
(certification and strict 2PL); production engines overwhelmingly run
*multiversion* snapshot schemes instead, where readers never block and the
weaker isolation level trades anomalies for throughput.  This module adds
that sixth point of comparison through the same
:class:`~repro.cc.base.ConcurrencyControl` seam:

* every execution takes a **snapshot** when it begins: the logical commit
  index at that instant.  All reads are served from the snapshot — the
  latest version of each granule committed at or before it — so a read
  *never* blocks and never aborts, no matter what concurrent writers do;
* writes are buffered (the write set) and validated at commit by
  **first-committer-wins**: the transaction commits only if no granule it
  wants to write has a version newer than its snapshot.  A conflict is a
  certification failure (:attr:`~repro.cc.base.AbortReason.CERTIFICATION`),
  resolved the optimistic way — abort and restart;
* on commit the transaction's writes are installed as new versions stamped
  with a fresh commit index.

The versioned store keys versions by the writer's commit index and keeps,
per granule, only the versions some active snapshot can still see: each
commit cuts the lists of the granules it wrote against the oldest active
snapshot, so memory stays bounded regardless of run length.  The scheme
keeps each execution's snapshot in one place, its ``_snapshots`` table, and
stores nothing per access: the version a read returned is recomputed from that
snapshot when the history recorder asks for it
(:meth:`SnapshotIsolation.observed_version`).

First-committer-wins makes lost updates impossible (two concurrent writers
of one granule cannot both commit) and snapshot reads make long forks and
non-repeatable reads impossible, but **write skew** survives: two
transactions may each read what the other then overwrites and both commit,
because their write sets are disjoint.  The scheme therefore registers
with the declared level ``"snapshot_isolation"`` — the isolation oracle
(:func:`repro.cc.history.check_isolation`) certifies it admits write skew
and nothing worse, instead of demanding full serializability.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cc.base import AbortReason, ConcurrencyControl
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tp.transaction import Transaction


class SnapshotIsolation(ConcurrencyControl):
    """Multiversion CC: snapshot reads, first-committer-wins writes.

    Decision state only: the version store and each active execution's
    snapshot.  Certification outcomes are the run's to count (the abort
    reasons reach ``RunMetrics``), not the scheme's.
    """

    name = "snapshot-isolation"
    multiversion = True

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: logical commit counter; a transaction's snapshot is its value
        #: at begin, and each commit installs versions at the next value
        self._commit_index = 0
        #: granule -> versions as (commit_index, writer txn_id), ascending
        self._versions: Dict[int, List[Tuple[int, int]]] = {}
        #: txn_id -> snapshot commit index of every active execution
        self._snapshots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def begin(self, txn: "Transaction") -> None:
        """Take the execution's snapshot: the current commit index."""
        self._snapshots[txn.txn_id] = self._commit_index

    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Serve the access from the snapshot; never blocks.

        A write implies a read of the granule in this model, exactly as
        under timestamp certification.
        """
        txn.record_access(item, is_write)
        return None

    def try_commit(self, txn: "Transaction") -> bool:
        """First-committer-wins: fail if any written granule moved on.

        A granule in the write set with a version newer than the
        transaction's snapshot means a concurrent transaction committed a
        write first; committing over it would lose that update.
        """
        snapshot = self._snapshots.get(txn.txn_id)
        if snapshot is None:
            raise RuntimeError(
                f"transaction {txn.txn_id} certified without begin() being called"
            )
        conflicts = 0
        for item in txn.write_set:
            versions = self._versions.get(item)
            if versions and versions[-1][0] > snapshot:
                conflicts += 1
        txn.last_conflicts = conflicts
        return not conflicts

    def finish(self, txn: "Transaction") -> None:
        """Install the write set as new versions at a fresh commit index.

        Each written granule's list is then cut back to the versions some
        active snapshot can still see: a version is dead once a *newer*
        version is also at or below every active snapshot (and below the
        next transaction's snapshot, the current commit index, which it
        always is).  Only the granules written gain a version, so only their
        lists are cut; a list is cut at each write of its granule, so it
        stays bounded.  The oldest active snapshot never moves back, so a
        version kept longer elsewhere is never the latest one at or below
        any active snapshot: every visible read and the first-committer-wins
        check, which only compares against the newest version, are
        unchanged.
        """
        self._commit_index += 1
        commit_index = self._commit_index
        self._snapshots.pop(txn.txn_id, None)
        horizon = min(self._snapshots.values(), default=commit_index)
        for item in txn.write_set:
            versions = self._versions.get(item)
            if versions is None:
                self._versions[item] = [(commit_index, txn.txn_id)]
                continue
            versions.append((commit_index, txn.txn_id))
            cut = bisect_right(versions, horizon, key=lambda v: v[0])
            if cut > 1:
                del versions[:cut - 1]

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Drop the execution's snapshot; buffered writes never existed."""
        self._snapshots.pop(txn.txn_id, None)

    # ------------------------------------------------------------------
    def observed_version(self, txn: "Transaction", item: int) -> Optional[int]:
        """The writer txn_id of the version ``txn``'s snapshot shows of ``item``.

        Computed from the snapshot when asked: the recorder asks right
        after the access, and garbage collection keeps every version an
        active snapshot can see, so this is the version the read returned.
        """
        return self._visible_version(item, self._snapshots[txn.txn_id])

    def version_count(self, item: int) -> int:
        """Number of versions currently retained for ``item`` (GC probe)."""
        return len(self._versions.get(item, ()))

    # ------------------------------------------------------------------
    def _visible_version(self, item: int, snapshot: int) -> Optional[int]:
        """Writer of the latest version committed at or before ``snapshot``."""
        versions = self._versions.get(item)
        if not versions:
            return None
        index = bisect_right(versions, snapshot, key=lambda v: v[0])
        if index == 0:
            return None
        return versions[index - 1][1]
