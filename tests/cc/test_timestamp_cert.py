"""Tests for the optimistic timestamp certification scheme."""

import pytest

from repro.cc.base import AbortReason
from repro.cc.timestamp_cert import TimestampCertification
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass


def make_txn(txn_id, items, writes=(), terminal_id=0):
    """Build an updater transaction over ``items`` writing ``writes``."""
    flags = tuple(item in writes for item in items)
    cls = TransactionClass.UPDATER if any(flags) else TransactionClass.QUERY
    return Transaction(
        txn_id=txn_id,
        terminal_id=terminal_id,
        txn_class=cls,
        items=tuple(items),
        write_flags=flags,
    )


def run_accesses(cc, txn):
    """Record all of a transaction's accesses with the CC scheme."""
    for item, is_write in txn.accesses:
        event = cc.access(txn, item, is_write)
        assert event is None  # optimistic schemes never block


class TestCertification:
    def test_non_conflicting_transactions_commit(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        first = make_txn(1, [1, 2], writes=[2])
        second = make_txn(2, [3, 4], writes=[4])
        for txn in (first, second):
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        assert cc.try_commit(first) is True
        cc.finish(first)
        assert cc.try_commit(second) is True
        cc.finish(second)
        assert first.last_conflicts == second.last_conflicts == 0

    def test_read_write_conflict_aborts_the_later_committer(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        reader = make_txn(1, [5])
        writer = make_txn(2, [5], writes=[5])
        for txn in (reader, writer):
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        sim._now = 1.0  # advance time so commit timestamps exceed start times
        assert cc.try_commit(writer) is True
        cc.finish(writer)
        # the reader's read of item 5 has been invalidated by the commit
        assert cc.try_commit(reader) is False
        assert reader.last_conflicts == 1
        cc.abort(reader, AbortReason.CERTIFICATION)

    def test_restarted_execution_can_commit_after_conflict(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        writer = make_txn(1, [7], writes=[7])
        victim = make_txn(2, [7])
        for txn in (writer, victim):
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        sim._now = 1.0
        assert cc.try_commit(writer)
        cc.finish(writer)
        assert not cc.try_commit(victim)
        cc.abort(victim, AbortReason.CERTIFICATION)
        # restart after the conflicting commit: new start timestamp
        sim._now = 2.0
        victim.start_execution(sim.now)
        cc.begin(victim)
        run_accesses(cc, victim)
        sim._now = 3.0
        assert cc.try_commit(victim) is True

    def test_write_write_conflict_detected_via_read_set(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        first = make_txn(1, [9], writes=[9])
        second = make_txn(2, [9], writes=[9])
        for txn in (first, second):
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        sim._now = 1.0
        assert cc.try_commit(first)
        cc.finish(first)
        assert cc.try_commit(second) is False

    def test_write_read_conflict_detected(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        reader = make_txn(1, [3])
        writer = make_txn(2, [3], writes=[3])
        for txn in (reader, writer):
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        sim._now = 1.0
        assert cc.try_commit(reader)
        cc.finish(reader)
        # the writer wants to write an item a concurrent transaction read and
        # committed after the writer's start
        assert cc.try_commit(writer) is False

    def test_disjoint_transactions_never_conflict(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        transactions = [make_txn(i, [i * 10, i * 10 + 1], writes=[i * 10]) for i in range(10)]
        for txn in transactions:
            txn.start_execution(sim.now)
            cc.begin(txn)
            run_accesses(cc, txn)
        sim._now = 1.0
        for txn in transactions:
            assert cc.try_commit(txn) is True
            cc.finish(txn)
            assert txn.last_conflicts == 0

    def test_commit_before_the_execution_started_raises(self):
        """The start timestamp is the execution's start time, not a copy ``begin`` keeps."""
        sim = Simulator()
        cc = TimestampCertification(sim)
        orphan = make_txn(1, [1])
        cc.begin(orphan)
        with pytest.raises(RuntimeError, match="before its execution started"):
            cc.try_commit(orphan)

    def test_commit_timestamps_strictly_increase_within_an_instant(self):
        sim = Simulator()
        cc = TimestampCertification(sim)
        first = make_txn(1, [1], writes=[1])
        first.start_execution(sim.now)
        cc.begin(first)
        run_accesses(cc, first)
        assert cc.try_commit(first)
        cc.finish(first)
        # a transaction starting at the same instant but after the commit
        # must see the conflict (the tie is broken by the logical counter)
        second = make_txn(2, [1])
        second.start_execution(sim.now)
        cc.begin(second)
        run_accesses(cc, second)
        assert cc.try_commit(second) is False
