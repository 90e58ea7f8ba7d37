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

    def test_accesses_set_after_construction_pass_the_same_checks(self):
        """The workload sets the accesses at first admission; until then both are empty."""
        txn = Transaction(1, 0, TransactionClass.UPDATER)
        assert txn.items == () and txn.write_flags == ()
        with pytest.raises(ValueError):
            txn.set_accesses((1, 2), (True,))
        with pytest.raises(ValueError):
            Transaction(1, 0, TransactionClass.QUERY).set_accesses((1,), (True,))
        txn.set_accesses((4, 7), (False, True))
        assert txn.accesses == ((4, False), (7, True))

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
    def test_start_execution_resets_per_run_state(self):
        txn = make_updater()
        txn.read_set.add(1)
        txn.write_set.add(2)
        txn.last_conflicts = 3
        txn.start_execution(20.0)
        assert txn.execution_started_at == 20.0
        assert txn.read_set == set()
        assert txn.write_set == set()
        assert txn.last_conflicts == 0

    def test_record_access_makes_every_write_a_read(self):
        txn = make_updater()
        for item, is_write in txn.accesses:
            txn.record_access(item, is_write)
        assert txn.read_set == {1, 2, 3, 4}
        assert txn.write_set == {2, 4}
