"""Tests for optimistic concurrency control with forward validation."""

import pytest

from repro.cc.base import AbortReason
from repro.cc.occ_forward import OccForwardValidation
from repro.cc.timestamp_cert import TimestampCertification
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass


def make_txn(txn_id, items, writes=()):
    flags = tuple(item in writes for item in items)
    cls = TransactionClass.UPDATER if any(flags) else TransactionClass.QUERY
    return Transaction(
        txn_id=txn_id,
        terminal_id=0,
        txn_class=cls,
        items=tuple(items),
        write_flags=flags,
    )


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cc(sim):
    return OccForwardValidation(sim)


class TestForwardValidation:
    def test_unconflicted_transactions_commit(self, cc):
        txn = make_txn(1, [3, 4], writes=[4])
        cc.begin(txn)
        cc.access(txn, 3, is_write=False)
        cc.access(txn, 4, is_write=True)
        assert cc.try_commit(txn) is True
        cc.finish(txn)
        assert txn.last_conflicts == 0

    def test_committer_invalidates_overlapping_reader(self, sim, cc):
        reader = make_txn(1, [7])
        writer = make_txn(2, [7], writes=[7])
        cc.begin(reader)
        cc.begin(writer)
        cc.access(reader, 7, is_write=False)   # read BEFORE the commit
        cc.access(writer, 7, is_write=True)
        assert cc.try_commit(writer) is True   # the validator always wins
        cc.finish(writer)
        assert cc.try_commit(reader) is False  # the victim dies at its turn
        assert reader.last_conflicts == 1
        cc.abort(reader, AbortReason.CERTIFICATION)

    def test_read_after_commit_is_not_invalidated(self, sim, cc):
        """Forward validation's whole point: later readers serialise after."""
        reader = make_txn(1, [7])
        writer = make_txn(2, [7], writes=[7])
        cc.begin(reader)
        cc.begin(writer)
        cc.access(writer, 7, is_write=True)
        assert cc.try_commit(writer) is True
        cc.finish(writer)
        cc.access(reader, 7, is_write=False)   # read AFTER the commit
        assert cc.try_commit(reader) is True
        cc.finish(reader)
        assert reader.last_conflicts == 0

    def test_less_pessimistic_than_backward_certification(self, sim):
        """The same interleaving aborts under backward cert, commits forward.

        A transaction starts, another commits a write it has NOT yet read,
        then it reads the granule: backward certification charges the
        committed write against the reader's start timestamp; forward
        validation sees no overlap at the commit instant and lets both
        commit.
        """
        forward = OccForwardValidation(sim)
        backward = TimestampCertification(sim)
        for scheme, expected in ((forward, True), (backward, False)):
            reader = make_txn(1, [7])
            writer = make_txn(2, [7], writes=[7])
            for txn in (reader, writer):       # the reader starts BEFORE the commit
                txn.start_execution(sim.now)
                scheme.begin(txn)
            scheme.access(writer, 7, is_write=True)
            assert scheme.try_commit(writer) is True
            scheme.finish(writer)
            sim.run(until=sim.now + 1.0)  # let time pass (backward compares ts)
            scheme.access(reader, 7, is_write=False)
            assert scheme.try_commit(reader) is expected, scheme.name

    def test_write_write_conflicts_are_caught_via_implied_reads(self, cc):
        first = make_txn(1, [5], writes=[5])
        second = make_txn(2, [5], writes=[5])
        cc.begin(first)
        cc.begin(second)
        cc.access(first, 5, is_write=True)
        cc.access(second, 5, is_write=True)
        assert cc.try_commit(first) is True
        cc.finish(first)
        assert cc.try_commit(second) is False

    def test_restart_clears_the_invalidation(self, cc):
        reader = make_txn(1, [7])
        writer = make_txn(2, [7], writes=[7])
        cc.begin(reader)
        cc.begin(writer)
        cc.access(reader, 7, is_write=False)
        cc.access(writer, 7, is_write=True)
        cc.try_commit(writer)
        cc.finish(writer)
        assert cc.try_commit(reader) is False
        cc.abort(reader, AbortReason.CERTIFICATION)
        # the restarted execution reads after the commit: clean slate
        reader.start_execution(0.0)
        cc.begin(reader)
        cc.access(reader, 7, is_write=False)
        assert cc.try_commit(reader) is True

    def test_read_only_committer_invalidates_nobody(self, cc):
        query = make_txn(1, [3, 4])
        other = make_txn(2, [3])
        cc.begin(query)
        cc.begin(other)
        cc.access(other, 3, is_write=False)
        cc.access(query, 3, is_write=False)
        cc.access(query, 4, is_write=False)
        assert cc.try_commit(query) is True
        cc.finish(query)
        assert cc.try_commit(other) is True
        assert other.last_conflicts == 0
