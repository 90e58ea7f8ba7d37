"""A plain reference admission gate that states the gate's contract.

``repro.core.admission.AdmissionGate`` keeps per-tenant counters.  This
model keeps two lists of ``(txn_id, tenant)`` pairs and counts by scanning
them:

* a submission is admitted at once if the load is below the limit, nobody
  waits and its tenant is below its admission quota;
* otherwise it is shed if its tenant already has ``queue quota`` waiters,
  and else it joins the end of the queue;
* after every queued submission, departure and new limit, waiters are
  admitted in queue order while the load is below the limit; a waiter whose
  tenant is at its admission quota keeps its place.

``test_gate_differential.py`` runs random scripts on both and compares them.
"""


class ReferenceGate:
    """FCFS among eligible tenants, with admission quotas, queue quotas and sheds."""

    def __init__(self, limit, quotas=None, queue_quotas=None):
        self.limit = limit
        self.quotas = quotas or {}
        self.queue_quotas = queue_quotas or {}
        self.admitted = []
        self.waiting = []

    def submit(self, txn_id, tenant):
        """Offer a transaction; return ``"admitted"``, ``"queued"`` or ``"shed"``."""
        if len(self.admitted) < self.limit and not self.waiting and self._eligible(tenant):
            self.admitted.append((txn_id, tenant))
            return "admitted"
        cap = self.queue_quotas.get(tenant)
        if cap is not None and _count(self.waiting, tenant) >= cap:
            return "shed"
        self.waiting.append((txn_id, tenant))
        self._admit_waiters()
        return "admitted" if (txn_id, tenant) in self.admitted else "queued"

    def depart(self, txn_id):
        """An admitted transaction leaves."""
        self.admitted = [entry for entry in self.admitted if entry[0] != txn_id]
        self._admit_waiters()

    def set_limit(self, limit):
        """Install a new limit ``n*``."""
        self.limit = limit
        self._admit_waiters()

    def _eligible(self, tenant):
        quota = self.quotas.get(tenant)
        return quota is None or _count(self.admitted, tenant) < quota

    def _admit_waiters(self):
        index = 0
        while index < len(self.waiting) and len(self.admitted) < self.limit:
            if self._eligible(self.waiting[index][1]):
                self.admitted.append(self.waiting.pop(index))
            else:
                index += 1


def _count(entries, tenant):
    return sum(1 for _txn_id, owner in entries if owner == tenant)
