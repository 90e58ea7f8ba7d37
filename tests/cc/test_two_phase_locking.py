"""Tests for strict two-phase locking with deadlock detection."""

import pytest

from repro.cc.base import AbortReason, TransactionAborted
from repro.cc.two_phase_locking import LockMode, TwoPhaseLocking
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
    return TwoPhaseLocking(sim)


class TestLockGranting:
    def test_shared_locks_are_compatible(self, sim, cc):
        first = make_txn(1, [10])
        second = make_txn(2, [10])
        cc.begin(first)
        cc.begin(second)
        assert cc.access(first, 10, is_write=False) is None
        assert cc.access(second, 10, is_write=False) is None
        assert set(cc.holders_of(10)) == {1, 2}

    def test_exclusive_lock_blocks_second_writer(self, sim, cc):
        first = make_txn(1, [10], writes=[10])
        second = make_txn(2, [10], writes=[10])
        cc.begin(first)
        cc.begin(second)
        assert cc.access(first, 10, is_write=True) is None
        wait = cc.access(second, 10, is_write=True)
        assert wait is not None
        assert not wait.triggered
        assert cc.wait_depth() == 1

    def test_exclusive_lock_blocks_reader(self, sim, cc):
        writer = make_txn(1, [3], writes=[3])
        reader = make_txn(2, [3])
        cc.begin(writer)
        cc.begin(reader)
        assert cc.access(writer, 3, is_write=True) is None
        assert cc.access(reader, 3, is_write=False) is not None

    def test_reader_blocks_writer(self, sim, cc):
        reader = make_txn(1, [3])
        writer = make_txn(2, [3], writes=[3])
        cc.begin(reader)
        cc.begin(writer)
        assert cc.access(reader, 3, is_write=False) is None
        assert cc.access(writer, 3, is_write=True) is not None

    def test_release_at_commit_grants_waiter(self, sim, cc):
        first = make_txn(1, [10], writes=[10])
        second = make_txn(2, [10], writes=[10])
        cc.begin(first)
        cc.begin(second)
        cc.access(first, 10, is_write=True)
        wait = cc.access(second, 10, is_write=True)
        assert cc.try_commit(first) is True
        cc.finish(first)
        assert wait.triggered and wait.ok
        assert set(cc.holders_of(10)) == {2}

    def test_reacquiring_a_held_lock_is_immediate(self, sim, cc):
        txn = make_txn(1, [4], writes=[4])
        cc.begin(txn)
        assert cc.access(txn, 4, is_write=True) is None
        assert cc.access(txn, 4, is_write=False) is None
        assert cc.access(txn, 4, is_write=True) is None

    def test_lock_upgrade_when_sole_holder(self, sim, cc):
        txn = make_txn(1, [4], writes=[4])
        cc.begin(txn)
        assert cc.access(txn, 4, is_write=False) is None
        assert cc.access(txn, 4, is_write=True) is None
        assert cc.holders_of(4)[1] is LockMode.EXCLUSIVE

    def test_lock_upgrade_waits_for_other_readers(self, sim, cc):
        upgrader = make_txn(1, [4], writes=[4])
        reader = make_txn(2, [4])
        cc.begin(upgrader)
        cc.begin(reader)
        cc.access(upgrader, 4, is_write=False)
        cc.access(reader, 4, is_write=False)
        wait = cc.access(upgrader, 4, is_write=True)
        assert wait is not None
        cc.finish(reader)
        assert wait.triggered and wait.ok
        assert cc.holders_of(4)[1] is LockMode.EXCLUSIVE

    def test_fcfs_no_barging_past_waiters(self, sim, cc):
        writer = make_txn(1, [5], writes=[5])
        waiting_writer = make_txn(2, [5], writes=[5])
        late_reader = make_txn(3, [5])
        for txn in (writer, waiting_writer, late_reader):
            cc.begin(txn)
        cc.access(writer, 5, is_write=True)
        cc.access(waiting_writer, 5, is_write=True)
        # the late reader must queue behind the waiting writer, not barge in
        wait = cc.access(late_reader, 5, is_write=False)
        assert wait is not None
        cc.finish(writer)
        assert set(cc.holders_of(5)) == {2}

    def test_two_commits_release_everything(self, sim, cc):
        first = make_txn(1, [1, 2], writes=[1])
        second = make_txn(2, [3, 4], writes=[4])
        for txn in (first, second):
            cc.begin(txn)
            for item, is_write in txn.accesses:
                assert cc.access(txn, item, is_write) is None
            assert cc.try_commit(txn) is True
            cc.finish(txn)
        for item in (1, 2, 3, 4):
            assert cc.holders_of(item) == {}
        assert cc.wait_depth() == 0


class TestDeadlockHandling:
    def test_two_transaction_deadlock_detected(self, sim, cc):
        sim._now = 0.0
        first = make_txn(1, [1, 2], writes=[1, 2])
        cc.begin(first)
        sim._now = 1.0
        second = make_txn(2, [1, 2], writes=[1, 2])
        cc.begin(second)
        cc.access(first, 1, is_write=True)
        cc.access(second, 2, is_write=True)
        wait_first = cc.access(first, 2, is_write=True)
        assert wait_first is not None and not wait_first.triggered
        wait_second = cc.access(second, 1, is_write=True)
        # the younger transaction (second) is chosen as the only victim
        assert not wait_first.triggered
        assert wait_second.triggered and not wait_second.ok
        assert isinstance(wait_second.exception, TransactionAborted)
        assert wait_second.exception.reason is AbortReason.DEADLOCK

    def test_victim_abort_unblocks_the_survivor(self, sim, cc):
        first = make_txn(1, [1, 2], writes=[1, 2])
        cc.begin(first)
        sim._now = 1.0
        second = make_txn(2, [1, 2], writes=[1, 2])
        cc.begin(second)
        cc.access(first, 1, is_write=True)
        cc.access(second, 2, is_write=True)
        wait_first = cc.access(first, 2, is_write=True)
        cc.access(second, 1, is_write=True)  # triggers deadlock, second is victim
        cc.abort(second, AbortReason.DEADLOCK)
        assert wait_first.triggered and wait_first.ok
        assert cc.holders_of(2)[1] is LockMode.EXCLUSIVE

    def test_oldest_victim_policy(self, sim):
        cc = TwoPhaseLocking(sim, victim_policy="oldest")
        first = make_txn(1, [1, 2], writes=[1, 2])
        cc.begin(first)
        sim._now = 1.0
        second = make_txn(2, [1, 2], writes=[1, 2])
        cc.begin(second)
        cc.access(first, 1, is_write=True)
        cc.access(second, 2, is_write=True)
        wait_first = cc.access(first, 2, is_write=True)
        cc.access(second, 1, is_write=True)
        # with the "oldest" policy the first transaction is sacrificed
        assert wait_first.triggered and not wait_first.ok

    def test_invalid_victim_policy_rejected(self, sim):
        with pytest.raises(ValueError):
            TwoPhaseLocking(sim, victim_policy="random")

    def test_three_way_deadlock_detected(self, sim, cc):
        transactions = []
        for txn_id in (1, 2, 3):
            sim._now = float(txn_id)
            txn = make_txn(txn_id, [txn_id, txn_id % 3 + 1], writes=[txn_id, txn_id % 3 + 1])
            cc.begin(txn)
            transactions.append(txn)
        # each transaction locks its own granule ...
        for txn in transactions:
            assert cc.access(txn, txn.txn_id, is_write=True) is None
        # ... and then requests its right neighbour's: 1->2, 2->3, 3->1
        waits = []
        for txn in transactions:
            waits.append(cc.access(txn, txn.txn_id % 3 + 1, is_write=True))
        failed = [wait for wait in waits if wait is not None and wait.triggered and not wait.ok]
        assert len(failed) == 1
        assert failed[0].exception.reason is AbortReason.DEADLOCK

    def test_no_false_deadlock_for_simple_waiting(self, sim, cc):
        holder = make_txn(1, [1], writes=[1])
        waiter = make_txn(2, [1], writes=[1])
        cc.begin(holder)
        cc.begin(waiter)
        cc.access(holder, 1, is_write=True)
        wait = cc.access(waiter, 1, is_write=True)
        assert wait is not None and not wait.triggered
        assert cc.wait_depth() == 1

    def test_abort_of_waiter_cleans_up_queue(self, sim, cc):
        holder = make_txn(1, [1], writes=[1])
        waiter = make_txn(2, [1], writes=[1])
        behind = make_txn(3, [1], writes=[1])
        for txn in (holder, waiter, behind):
            cc.begin(txn)
        cc.access(holder, 1, is_write=True)
        wait = cc.access(waiter, 1, is_write=True)
        wait_behind = cc.access(behind, 1, is_write=True)
        cc.abort(waiter, AbortReason.DISPLACEMENT)
        assert cc.wait_depth() == 1
        cc.finish(holder)
        # the withdrawn request is never granted; the one behind it is
        assert not wait.triggered
        assert wait_behind.triggered and wait_behind.ok
        assert set(cc.holders_of(1)) == {3}
        assert cc.wait_depth() == 0
        cc.finish(behind)
        assert cc.holders_of(1) == {}

    def test_restarted_waiter_keeps_every_live_waiter_in_its_waits_for(self, sim):
        """Regression: a restarted transaction's cancelled request stayed
        queued, and the waits-for walk stopped at that dead entry, so the
        live waiters between it and the live request dropped out of the
        graph and deadlock detection chose victims from a partial cycle."""
        cc = TwoPhaseLocking(sim, victim_policy="youngest")
        h, g, t = 1, 2, 3  # granules
        names = {7: "R", 5: "H", 6: "A", 1: "T", 0: "B"}
        txns = {name: make_txn(txn_id, [h, g, t], writes=[h, g, t])
                for txn_id, name in names.items()}
        failed = []
        grants = {}

        def request(name, item):
            grant = cc.access(txns[name], item, is_write=True)
            if grant is not None:
                grants[name] = grant
                grant.add_callback(
                    lambda event: failed.append(name) if not event.ok else None)
            return grant

        def begin_at(now, name):
            sim.run(until=now)
            cc.begin(txns[name])

        begin_at(0, "R")
        assert request("R", h) is None
        begin_at(1, "H")
        assert request("H", g) is None
        begin_at(2, "A")
        assert request("A", g) is not None
        begin_at(3, "T")
        assert request("T", g) is not None
        cc.abort(txns["T"], AbortReason.DISPLACEMENT)
        begin_at(4, "T")
        assert request("T", t) is None
        begin_at(5, "B")
        assert request("B", g) is not None
        sim.run(until=6)
        assert request("T", g) is not None
        assert request("H", h) is not None
        assert request("R", t) is not None
        sim.run(until=7)
        # T waits for H, A and B on g; B waits for H and A.  R -> T -> B ->
        # H -> R is a cycle whose youngest member is B; once B is gone,
        # R -> T -> H -> R remains and T is its youngest member
        assert failed == ["B", "T"]
        for name in ("B", "T"):
            assert grants[name].exception.reason is AbortReason.DEADLOCK
        for name in ("A", "H", "R"):
            assert not grants[name].triggered


class TestTwoPhaseLockingInSimulation:
    def test_blocking_execution_with_processes(self, sim, cc):
        """Two conflicting writers executed as processes serialise correctly."""
        order = []

        def run(txn):
            cc.begin(txn)
            for item, is_write in txn.accesses:
                grant = cc.access(txn, item, is_write)
                if grant is not None:
                    yield grant
                yield sim.timeout(1.0)
            assert cc.try_commit(txn)
            cc.finish(txn)
            order.append((txn.txn_id, sim.now))

        sim.process(run(make_txn(1, [7, 8], writes=[7, 8])))
        sim.process(run(make_txn(2, [7, 9], writes=[7, 9])))
        sim.run(until=20.0)
        assert len(order) == 2
        # the second writer cannot finish before the first released item 7
        assert order[0][0] == 1
        assert order[1][1] > order[0][1]
