"""Tests for the transaction record."""

import pytest

from repro.tp.transaction import Transaction, TransactionClass


def make_updater():
    return Transaction(
        txn_id=1,
        terminal_id=3,
        txn_class=TransactionClass.UPDATER,
        items=(1, 2, 3, 4),
        write_flags=(False, True, False, True),
        submitted_at=10.0,
    )


class TestConstruction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Transaction(1, 0, TransactionClass.UPDATER, items=(1, 2), write_flags=(True,))

    def test_query_cannot_write(self):
        with pytest.raises(ValueError):
            Transaction(1, 0, TransactionClass.QUERY, items=(1,), write_flags=(True,))

    def test_size_and_write_count(self):
        txn = make_updater()
        assert txn.size == 4
        assert txn.write_count == 2
        assert not txn.is_read_only

    def test_query_is_read_only(self):
        txn = Transaction(2, 0, TransactionClass.QUERY, items=(5, 6), write_flags=(False, False))
        assert txn.is_read_only

    def test_accesses_pairs(self):
        txn = make_updater()
        assert txn.accesses == ((1, False), (2, True), (3, False), (4, True))


class TestLifecycleBookkeeping:
    def test_response_time_requires_commit(self):
        txn = make_updater()
        assert txn.response_time() is None
        txn.committed_at = 25.0
        assert txn.response_time() == pytest.approx(15.0)

    def test_waiting_time_requires_admission(self):
        txn = make_updater()
        assert txn.waiting_time() is None
        txn.admitted_at = 12.0
        assert txn.waiting_time() == pytest.approx(2.0)

    def test_start_execution_resets_per_run_state(self):
        txn = make_updater()
        txn.read_set.add(1)
        txn.write_set.add(2)
        txn.cc_state["start_ts"] = 1.0
        txn.last_conflicts = 3
        txn.start_execution(20.0)
        assert txn.execution_started_at == 20.0
        assert txn.read_set == set()
        assert txn.write_set == set()
        assert txn.cc_state == {}
        assert txn.last_conflicts == 0

    def test_record_access_makes_every_write_a_read(self):
        txn = make_updater()
        for item, is_write in txn.accesses:
            txn.record_access(item, is_write)
        assert txn.read_set == {1, 2, 3, 4}
        assert txn.write_set == {2, 4}
