"""Tests for the admission gate."""

import pytest

from repro.core.admission import AdmissionGate, AdmissionShed
from repro.sim.engine import SimulationError, Simulator
from repro.tp.transaction import Transaction, TransactionClass


def make_txn(txn_id, tenant=""):
    return Transaction(
        txn_id=txn_id,
        terminal_id=0,
        txn_class=TransactionClass.QUERY,
        items=(txn_id,),
        write_flags=(False,),
        submitted_at=0.0,
        tenant=tenant,
    )


def _was_shed(event):
    """True for a submit event the gate failed with :class:`AdmissionShed`."""
    return event.triggered and isinstance(event.exception, AdmissionShed)


@pytest.fixture
def sim():
    return Simulator()


class TestAdmission:
    def test_limit_validation(self, sim):
        with pytest.raises(ValueError):
            AdmissionGate(sim, initial_limit=0)
        gate = AdmissionGate(sim, initial_limit=5)
        with pytest.raises(ValueError):
            gate.set_limit(0)

    def test_admits_immediately_below_limit(self, sim):
        gate = AdmissionGate(sim, initial_limit=3)
        events = [gate.submit(make_txn(i)) for i in range(3)]
        assert all(event.triggered for event in events)
        assert gate.current_load == 3
        assert gate.queue_length == 0

    def test_queues_beyond_limit(self, sim):
        gate = AdmissionGate(sim, initial_limit=2)
        for i in range(2):
            gate.submit(make_txn(i))
        waiting = gate.submit(make_txn(99))
        assert not waiting.triggered
        assert gate.queue_length == 1

    def test_departure_admits_next_waiter_fcfs(self, sim):
        gate = AdmissionGate(sim, initial_limit=1)
        first = make_txn(1)
        gate.submit(first)
        second_event = gate.submit(make_txn(2))
        third_event = gate.submit(make_txn(3))
        gate.depart(first)
        assert second_event.triggered
        assert not third_event.triggered
        assert gate.current_load == 1

    def test_departure_of_unknown_transaction_raises(self, sim):
        gate = AdmissionGate(sim)
        with pytest.raises(SimulationError):
            gate.depart(make_txn(1))

    def test_raising_the_limit_admits_waiters(self, sim):
        gate = AdmissionGate(sim, initial_limit=1)
        gate.submit(make_txn(1))
        waiting = [gate.submit(make_txn(i)) for i in range(2, 6)]
        gate.set_limit(3)
        assert sum(event.triggered for event in waiting) == 2
        assert gate.current_load == 3

    def test_lowering_the_limit_does_not_evict(self, sim):
        gate = AdmissionGate(sim, initial_limit=5)
        transactions = [make_txn(i) for i in range(5)]
        for txn in transactions:
            gate.submit(txn)
        gate.set_limit(2)
        assert gate.current_load == 5  # admission control alone never aborts
        # but departures do not re-admit until the load drops below the limit
        gate.depart(transactions[0])
        assert gate.current_load == 4

    def test_admitted_at_is_stamped(self, sim):
        gate = AdmissionGate(sim, initial_limit=1)
        sim._now = 3.5
        txn = make_txn(1)
        gate.submit(txn)
        assert txn.admitted_at == 3.5

    def test_fcfs_order_preserved_across_limit_changes(self, sim):
        gate = AdmissionGate(sim, initial_limit=1)
        gate.submit(make_txn(0))
        events = [gate.submit(make_txn(i)) for i in range(1, 5)]
        gate.set_limit(2)
        assert events[0].triggered
        assert not events[1].triggered
        gate.set_limit(4)
        assert events[1].triggered and events[2].triggered
        assert not events[3].triggered

    def test_infinite_limit_never_queues(self, sim):
        gate = AdmissionGate(sim)
        for i in range(100):
            gate.submit(make_txn(i))
        assert gate.queue_length == 0
        assert gate.current_load == 100


class TestTenantQuotas:
    def test_admission_quota_caps_a_tenant_below_the_global_limit(self, sim):
        gate = AdmissionGate(sim, initial_limit=10, tenant_quotas={"burst": 2})
        events = [gate.submit(make_txn(i, tenant="burst")) for i in range(4)]
        assert [event.triggered for event in events] == [True, True, False, False]
        assert gate.current_load == 2
        assert gate.queue_length == 2

    def test_unquota_tenants_are_unaffected_by_other_quotas(self, sim):
        gate = AdmissionGate(sim, initial_limit=10, tenant_quotas={"burst": 1})
        gate.submit(make_txn(0, tenant="burst"))
        gate.submit(make_txn(1, tenant="burst"))          # queued: over quota
        steady = gate.submit(make_txn(2, tenant="steady"))
        assert steady.triggered
        assert gate.current_load == 2                     # one burst, one steady
        assert gate.queue_length == 1

    def test_fcfs_among_eligible_skips_over_quota_heads(self, sim):
        """An over-quota waiter at the head must not stall eligible tenants
        behind it (head-of-line blocking would couple the tenants)."""
        gate = AdmissionGate(sim, initial_limit=10, tenant_quotas={"burst": 1})
        gate.submit(make_txn(0, tenant="burst"))
        blocked = gate.submit(make_txn(1, tenant="burst"))
        eligible = gate.submit(make_txn(2, tenant="steady"))
        assert not blocked.triggered
        assert eligible.triggered

    def test_departure_readmits_the_over_quota_waiter(self, sim):
        gate = AdmissionGate(sim, initial_limit=10, tenant_quotas={"burst": 1})
        first = make_txn(0, tenant="burst")
        gate.submit(first)
        waiting = gate.submit(make_txn(1, tenant="burst"))
        gate.depart(first)
        assert waiting.triggered
        assert gate.current_load == 1
        assert gate.queue_length == 0

    def test_queue_quota_sheds_with_a_failed_event(self, sim):
        gate = AdmissionGate(sim, initial_limit=1,
                             tenant_queue_quotas={"burst": 1})
        events = [gate.submit(make_txn(i, tenant="burst")) for i in range(3)]
        admitted, queued, shed = events                # queue quota 1
        assert admitted.triggered and admitted.ok
        assert not queued.triggered
        assert shed.triggered and not shed.ok
        assert isinstance(shed._exception, AdmissionShed)
        assert sum(1 for event in events if _was_shed(event)) == 1
        assert gate.queue_length == 1
        assert gate.current_load == 1

    def test_shedding_is_per_tenant(self, sim):
        gate = AdmissionGate(sim, initial_limit=1,
                             tenant_queue_quotas={"burst": 0})
        transactions = [make_txn(0, tenant="steady"),  # fills the system
                        make_txn(1, tenant="burst"),
                        make_txn(2, tenant="steady")]
        events = [gate.submit(txn) for txn in transactions]
        shed, queued = events[1], events[2]
        assert shed.triggered and not shed.ok
        assert not queued.triggered                    # queued, not shed
        assert [txn.tenant for txn, event in zip(transactions, events)
                if _was_shed(event)] == ["burst"]

    def test_conservation_with_quotas(self, sim):
        gate = AdmissionGate(sim, initial_limit=2, tenant_quotas={"a": 1},
                             tenant_queue_quotas={"a": 1})
        transactions = [make_txn(i, tenant="a" if i % 2 else "b")
                        for i in range(8)]
        outcomes = [gate.submit(txn) for txn in transactions]
        for txn, event in zip(transactions, outcomes):
            if event.triggered and event.ok:
                gate.depart(txn)
        submitted = len(transactions)
        shed = sum(1 for event in outcomes if _was_shed(event))
        assert shed > 0
        assert gate.total_admitted + shed + gate.queue_length == submitted
        assert gate.current_load == gate.total_admitted - gate.total_departed


class TestGateStatistics:
    def test_counters(self, sim):
        gate = AdmissionGate(sim, initial_limit=2)
        transactions = [make_txn(i) for i in range(3)]
        for txn in transactions:
            gate.submit(txn)
        gate.depart(transactions[0])
        assert gate.total_admitted == 3  # the third was admitted after the departure
        assert gate.total_departed == 1

    def test_mean_load_time_weighted(self, sim):
        gate = AdmissionGate(sim, initial_limit=10)
        txn = make_txn(1)
        gate.submit(txn)          # load 1 from t=0
        sim._now = 4.0
        gate.depart(txn)          # load 0 from t=4
        sim._now = 8.0
        assert gate.mean_load() == pytest.approx(0.5)

    def test_reset_statistics(self, sim):
        gate = AdmissionGate(sim, initial_limit=10)
        txn = make_txn(1)
        gate.submit(txn)
        sim._now = 4.0
        gate.reset_statistics()
        sim._now = 8.0
        assert gate.mean_load() == pytest.approx(1.0)
