"""Admission control gate (Section 4.3, Figure 5).

"The admission to the transaction processing system is controlled by a
'gate' that accepts an arriving transaction if and only if the actual load
``n`` is below the current threshold ``n*``.  Otherwise the transaction has
to wait in a FCFS queue.  Waiting transactions are admitted as soon as
``n < n*`` holds again."

The gate is the single point where the concurrency level is defined: a
transaction counts against ``n`` from the moment it is admitted until it
departs (commits or is displaced), *including* all restarted executions in
between — a restart does not go back through the gate, which matches the
paper's model where the load ``n`` is the number of transactions inside the
processing system.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Dict, Deque, Optional, Tuple

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import TimeWeightedStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.tp.transaction import Transaction


class AdmissionShed(SimulationError):
    """An arrival was rejected outright instead of queued.

    Raised *through* the submit event (the gate fails the event with this
    exception), so the submitting process sees it at its ``yield`` — the
    open-system analogue of a busy signal.  Only tenants with a
    ``queue_quota`` can be shed; the classic closed model never sees this.
    """


class AdmissionGate:
    """FCFS admission queue in front of the transaction processing system.

    With ``tenant_quotas``/``tenant_queue_quotas`` the gate additionally
    enforces per-tenant caps: a tenant at its admission quota keeps its
    waiters queued even while the global threshold has room (admission
    stays FCFS *among eligible tenants*), and a tenant at its queue quota
    has further arrivals shed via :class:`AdmissionShed`.  A tenant without
    quotas is always eligible and never shed, so without quotas (the
    default, and always in the closed model) the gate is plain FCFS: while
    anyone waits the load is at or above the threshold, so each admission
    takes the queue's head.
    """

    def __init__(self, sim: Simulator, initial_limit: float = math.inf,
                 tenant_quotas: Optional[Dict[str, int]] = None,
                 tenant_queue_quotas: Optional[Dict[str, int]] = None):
        if initial_limit < 1:
            raise ValueError(f"initial_limit must be >= 1, got {initial_limit}")
        self.sim = sim
        self._limit = float(initial_limit)
        self._admitted: set[int] = set()
        self._waiting: Deque[Tuple["Transaction", Event]] = deque()
        #: time-weighted in-system load n(t), the run's one integral of it
        self.load_stats = TimeWeightedStats(sim.now, 0.0)
        self.total_admitted = 0
        self.total_departed = 0
        self._quotas = dict(tenant_quotas or {})
        self._queue_quotas = dict(tenant_queue_quotas or {})
        # per-tenant occupancy, which the quotas are checked against
        self._admitted_by_tenant: Dict[str, int] = {}
        self._waiting_by_tenant: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def limit(self) -> float:
        """The current threshold ``n*``."""
        return self._limit

    @property
    def current_load(self) -> int:
        """The actual load ``n``: transactions admitted and not yet departed."""
        return len(self._admitted)

    @property
    def queue_length(self) -> int:
        """Transactions waiting in front of the gate."""
        return len(self._waiting)

    # ------------------------------------------------------------------
    def set_limit(self, new_limit: float) -> None:
        """Install a new threshold and admit waiters if it increased.

        Lowering the threshold below the current load does *not* evict
        admitted transactions; that is the job of the (optional) displacement
        policy.  Admission control alone "was responsive enough to prevent
        thrashing even with dramatically changing workloads" (Section 4.3).
        """
        if new_limit < 1:
            raise ValueError(f"limit must be >= 1, got {new_limit}")
        self._limit = float(new_limit)
        self._admit_waiters()

    def submit(self, txn: "Transaction") -> Event:
        """Ask for admission; the returned event succeeds when admitted.

        When the transaction's tenant has a configured queue quota and its
        waiting count is already at that cap, the event is *failed* with
        :class:`AdmissionShed` instead — the submitter sees the exception
        at its ``yield``.
        """
        event = Event(self.sim)
        tenant = txn.tenant
        if (self.current_load < self._limit and not self._waiting
                and self._below_admission_quota(tenant)):
            self._admit(txn, event)
            return event
        cap = self._queue_quotas.get(tenant)
        if cap is not None and self._waiting_by_tenant.get(tenant, 0) >= cap:
            event.fail(AdmissionShed(
                f"tenant {tenant!r} queue quota {cap} exhausted"
            ))
            return event
        self._waiting.append((txn, event))
        self._waiting_by_tenant[tenant] = self._waiting_by_tenant.get(tenant, 0) + 1
        # the queue head may belong to an over-quota tenant while this
        # arrival's tenant has room: give eligible waiters a chance now
        # instead of stalling them until the next departure
        self._admit_waiters()
        return event

    def depart(self, txn: "Transaction") -> None:
        """A transaction left the system (commit or displacement)."""
        if txn.txn_id not in self._admitted:
            raise SimulationError(
                f"transaction {txn.txn_id} departed without having been admitted"
            )
        self._admitted.discard(txn.txn_id)
        self.total_departed += 1
        self._admitted_by_tenant[txn.tenant] -= 1
        self.load_stats.update(self.sim.now, len(self._admitted))
        self._admit_waiters()

    # ------------------------------------------------------------------
    def _below_admission_quota(self, tenant: str) -> bool:
        quota = self._quotas.get(tenant)
        return quota is None or self._admitted_by_tenant.get(tenant, 0) < quota

    def _admit(self, txn: "Transaction", event: Event) -> None:
        self._admitted.add(txn.txn_id)
        self.total_admitted += 1
        tenant = txn.tenant
        self._admitted_by_tenant[tenant] = self._admitted_by_tenant.get(tenant, 0) + 1
        txn.admitted_at = self.sim.now
        self.load_stats.update(self.sim.now, len(self._admitted))
        event.succeed(txn)

    def _admit_waiters(self) -> None:
        # FCFS among eligible tenants: scan the queue in order, admitting
        # each waiter whose tenant is below its admission quota while the
        # global threshold has room; over-quota waiters keep their place
        index = 0
        while index < len(self._waiting) and self.current_load < self._limit:
            txn, event = self._waiting[index]
            if self._below_admission_quota(txn.tenant):
                del self._waiting[index]
                self._waiting_by_tenant[txn.tenant] -= 1
                self._admit(txn, event)
            else:
                index += 1

    # ------------------------------------------------------------------
    def mean_load(self, until: Optional[float] = None) -> float:
        """Time-averaged in-system load since the last statistics reset."""
        return self.load_stats.mean(until if until is not None else self.sim.now)

    def reset_statistics(self) -> None:
        """Restart the time-weighted load average (end of warm-up or interval)."""
        self.load_stats.reset(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdmissionGate limit={self._limit:.1f} load={self.current_load} "
            f"queued={self.queue_length}>"
        )
