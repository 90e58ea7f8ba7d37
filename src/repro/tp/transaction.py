"""Transaction records and lifecycle bookkeeping.

A :class:`Transaction` is a passive record describing one unit of work as it
circulates through the closed model: the granules it will access (with their
read/write modes), its class (query or updater) and the timestamps of the
interesting lifecycle events.  The *behaviour* lives in
:mod:`repro.tp.system`, which runs each transaction as a simulation process;
keeping the record passive makes it trivial to inspect in tests and to hand
to the concurrency control and displacement policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple


class TransactionClass(enum.Enum):
    """Workload classes of the paper: read-only queries and updaters."""

    QUERY = "query"
    UPDATER = "updater"


@dataclass
class Transaction:
    """One circulating transaction of the closed model."""

    #: unique identifier (stable across restarts of the same submission)
    txn_id: int
    #: terminal that submitted the transaction
    terminal_id: int
    #: query or updater
    txn_class: TransactionClass
    #: granules to access, in access order
    items: Tuple[int, ...]
    #: parallel to ``items``: True where the access is a write
    write_flags: Tuple[bool, ...]
    #: tenant (transaction class name) the submission belongs to; empty for
    #: the single-class workload — per-tenant admission quotas and SLO
    #: metrics key off this
    tenant: str = ""
    #: time the transaction was submitted to the admission gate
    submitted_at: float = 0.0
    #: time the transaction was admitted into the processing system
    admitted_at: Optional[float] = None
    #: time the current execution started
    execution_started_at: Optional[float] = None
    #: time the transaction committed (None while in progress)
    committed_at: Optional[float] = None
    #: conflicts detected at the most recent certification attempt
    last_conflicts: int = 0
    #: read set of the current execution (maintained by the CC scheme)
    read_set: set = field(default_factory=set)
    #: write set of the current execution (maintained by the CC scheme)
    write_set: set = field(default_factory=set)
    #: scratch space for the concurrency control scheme (timestamps, ...)
    cc_state: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.items) != len(self.write_flags):
            raise ValueError(
                "items and write_flags must have the same length "
                f"({len(self.items)} vs {len(self.write_flags)})"
            )
        if self.txn_class is TransactionClass.QUERY and any(self.write_flags):
            raise ValueError("a read-only query cannot contain write accesses")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of data accesses (``k`` for this transaction)."""
        return len(self.items)

    @property
    def write_count(self) -> int:
        """Number of write accesses."""
        return sum(1 for flag in self.write_flags if flag)

    @property
    def is_read_only(self) -> bool:
        """True if the transaction performs no writes."""
        return self.write_count == 0

    @property
    def accesses(self) -> Sequence[Tuple[int, bool]]:
        """The (granule, is_write) pairs in access order."""
        return tuple(zip(self.items, self.write_flags))

    def response_time(self) -> Optional[float]:
        """Submission-to-commit latency, or None if not yet committed."""
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at

    def waiting_time(self) -> Optional[float]:
        """Time spent in the admission queue, or None if never admitted."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    # ------------------------------------------------------------------
    def record_access(self, item: int, is_write: bool) -> None:
        """Add an access to the read set and, for a write, the write set.

        Every write also reads its granule in this model, so write/write
        conflicts surface through the read sets too.
        """
        self.read_set.add(item)
        if is_write:
            self.write_set.add(item)

    def start_execution(self, now: float) -> None:
        """Mark the beginning of a (re-)execution and clear per-run state."""
        self.execution_started_at = now
        self.read_set = set()
        self.write_set = set()
        self.cc_state = {}
        self.last_conflicts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transaction {self.txn_id} {self.txn_class.value} k={self.size} "
            f"writes={self.write_count}>"
        )
