"""Common interface for concurrency control schemes.

A concurrency control (CC) scheme observes the data accesses of transactions
and decides which transactions may commit.  The transaction model drives the
scheme through five hooks:

``begin``
    A (new or restarted) transaction execution starts.
``access``
    The transaction reads or writes a data granule.  Blocking schemes return
    a simulation event the caller must wait on (the lock grant); optimistic
    schemes return ``None`` and merely record the access.  The event may fail
    with :class:`TransactionAborted` (e.g. a deadlock victim), in which case
    the transaction must abort its current execution.  ``access`` may also
    *raise* :class:`TransactionAborted` synchronously — the
    deadlock-avoiding 2PL variants abort a doomed request at request time
    (wait-die) or deliver a pending wound before the access happens
    (wound-wait) instead of ever enqueueing it.
``try_commit``
    The transaction finished its last phase and asks to commit.  Returns
    ``True`` (commit) or ``False`` (certification failed; the transaction
    must abort and restart).
``finish``
    Called after a successful commit so the scheme can install writes and
    release resources.
``abort``
    Called whenever an execution is abandoned (certification failure,
    deadlock victim, displacement) so the scheme can clean up.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tp.transaction import Transaction


class AbortReason(enum.Enum):
    """Why a transaction execution was abandoned.

    ``CERTIFICATION``, ``DEADLOCK`` and ``DISPLACEMENT`` are the original
    reasons of the paper's model.  ``WOUND`` and ``DIE`` are the
    *restart-family* reasons of the timestamp-priority 2PL variants: a
    wound-wait victim is aborted by an older transaction that wants its
    lock, a wait-die victim aborts itself rather than wait for an older
    lock holder.  Neither involves a waits-for cycle, so reporting them
    separately from ``DEADLOCK`` keeps the restart behaviour of the
    deadlock-*avoiding* schemes visible in sweep results.
    """

    CERTIFICATION = "certification"
    DEADLOCK = "deadlock"
    DISPLACEMENT = "displacement"
    WOUND = "wound"
    DIE = "die"


class TransactionAborted(Exception):
    """Raised into / returned to a transaction whose execution must abort."""

    def __init__(self, reason: AbortReason, detail: str = ""):
        super().__init__(f"{reason.value}: {detail}" if detail else reason.value)
        self.reason = reason
        self.detail = detail


class ConcurrencyControl(ABC):
    """Abstract base class of all concurrency control schemes."""

    #: Human-readable scheme name used in reports.
    name: str = "abstract"

    #: True for multiversion schemes, whose reads may return a granule
    #: version *older* than the latest committed one.  The history recorder
    #: (:mod:`repro.cc.history`) keys on this: for single-version schemes
    #: the version read is, by definition, the latest committed at the time
    #: the read takes effect, while a multiversion scheme must report the
    #: version it actually served via :meth:`observed_version`.
    multiversion: bool = False

    def observed_version(self, txn: "Transaction", item: int) -> Optional[int]:
        """The writer txn_id of the version ``txn`` read of ``item``.

        Only meaningful for schemes with :attr:`multiversion` set, which
        must override it; ``None`` denotes the initial (never-written)
        version of the granule.  The history recorder calls this right
        after a non-blocking ``access`` returns, before any other event, so
        a scheme may compute the answer from its decision state at call
        time (a snapshot scheme: from the execution's snapshot) instead of
        storing what every access read.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not a multiversion scheme")

    @abstractmethod
    def begin(self, txn: "Transaction") -> None:
        """Register the start of a (possibly re-)execution of ``txn``."""

    @abstractmethod
    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Record/request access to ``item``.

        Returns an event to wait on for blocking schemes, ``None`` otherwise.
        """

    @abstractmethod
    def try_commit(self, txn: "Transaction") -> bool:
        """Certify ``txn``; return True to commit, False to abort+restart."""

    @abstractmethod
    def finish(self, txn: "Transaction") -> None:
        """Finalize a committed transaction (install writes, release locks)."""

    @abstractmethod
    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Clean up an abandoned execution of ``txn``."""

    def wait_depth(self) -> int:
        """Number of transactions currently blocked inside the scheme.

        The lock-queue-depth probe hook (:mod:`repro.obs.probes`): blocking
        schemes override this with the size of their waits-for structure;
        non-blocking schemes never park a transaction, so the default 0 is
        exact for them.
        """
        return 0
