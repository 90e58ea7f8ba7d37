"""Tests for the deadlock-avoiding 2PL variants: wound-wait and wait-die.

Both schemes ride the shared :class:`~repro.cc.two_phase_locking.LockingScheme`
machinery and differ from the detector only in conflict resolution, so
these tests focus on exactly that: who is sacrificed, when the sacrifice
is delivered, and that priorities persist across restarts (the
starvation-freedom argument).
"""

import pytest

from repro.cc.base import AbortReason, TransactionAborted
from repro.cc.two_phase_locking import (
    LockingScheme,
    TwoPhaseLocking,
    WaitDieLocking,
    WoundWaitLocking,
)
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


class TestSharedMachinery:
    """The family really is one machine with three decision rules."""

    @pytest.mark.parametrize("scheme_class",
                             [TwoPhaseLocking, WoundWaitLocking, WaitDieLocking])
    def test_every_variant_is_a_locking_scheme(self, sim, scheme_class):
        assert isinstance(scheme_class(sim), LockingScheme)

    @pytest.mark.parametrize("scheme_class",
                             [TwoPhaseLocking, WoundWaitLocking, WaitDieLocking])
    def test_shared_grant_path_is_identical(self, sim, scheme_class):
        """Compatible requests never reach the conflict resolution at all."""
        cc = scheme_class(sim)
        first = make_txn(1, [10])
        second = make_txn(2, [10])
        cc.begin(first)
        cc.begin(second)
        assert cc.access(first, 10, is_write=False) is None
        assert cc.access(second, 10, is_write=False) is None
        assert set(cc.holders_of(10)) == {1, 2}
        assert cc.wait_depth() == 0

    def test_base_class_has_no_conflict_resolution(self, sim):
        cc = LockingScheme(sim)
        writer = make_txn(1, [5], writes=[5])
        blocked = make_txn(2, [5], writes=[5])
        cc.begin(writer)
        cc.begin(blocked)
        assert cc.access(writer, 5, is_write=True) is None
        with pytest.raises(NotImplementedError):
            cc.access(blocked, 5, is_write=True)


class TestWoundWait:
    def test_younger_requester_waits_for_older_holder(self, sim):
        cc = WoundWaitLocking(sim)
        older = make_txn(1, [7], writes=[7])
        younger = make_txn(2, [7], writes=[7])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(older, 7, is_write=True) is None
        wait = cc.access(younger, 7, is_write=True)
        assert wait is not None and not wait.triggered
        # nobody was wounded: the holder's next access goes ahead
        assert cc.access(older, 8, is_write=False) is None

    def test_youngest_requester_waits_behind_queue_without_wounding(self, sim):
        """Age is first-begin order; the youngest wounds nobody, it queues."""
        cc = WoundWaitLocking(sim)
        holder = make_txn(1, [7], writes=[7])
        middle = make_txn(3, [7], writes=[7])
        youngest = make_txn(2, [7], writes=[7])
        for txn in (holder, middle, youngest):  # priorities 0, 1, 2
            cc.begin(txn)
        assert cc.access(holder, 7, is_write=True) is None
        assert cc.access(middle, 7, is_write=True) is not None
        wait = cc.access(youngest, 7, is_write=True)
        assert wait is not None and not wait.triggered
        assert cc.access(holder, 8, is_write=False) is None  # not wounded
        assert cc.wait_depth() == 2

    def test_wound_fails_the_blocked_victims_wait_event(self, sim):
        cc = WoundWaitLocking(sim)
        oldest = make_txn(1, [9], writes=[9])
        holder = make_txn(2, [9], writes=[9])
        cc.begin(oldest)
        cc.begin(holder)
        # the younger txn holds, the older one is still filling its cart
        assert cc.access(holder, 9, is_write=True) is None
        victim_wait = None
        # holder (younger) now blocks on a second granule held by nobody —
        # make it wait behind the oldest on granule 11 instead
        assert cc.access(oldest, 11, is_write=True) is None
        victim_wait = cc.access(holder, 11, is_write=True)
        assert victim_wait is not None
        # now the oldest wants granule 9: holder is younger -> wounded, and
        # since it is blocked the wound fails its wait event immediately
        wait = cc.access(oldest, 9, is_write=True)
        assert wait is not None  # the victim still holds 9 until it aborts
        assert victim_wait.triggered and not victim_wait.ok
        with pytest.raises(TransactionAborted) as aborted:
            _ = victim_wait.value
        assert aborted.value.reason is AbortReason.WOUND
        assert cc.wait_depth() == 1  # only the wounder waits now

    def test_wound_of_running_victim_is_delivered_at_next_access(self, sim):
        cc = WoundWaitLocking(sim)
        older = make_txn(1, [5], writes=[5])
        younger = make_txn(2, [5], writes=[5])
        cc.begin(older)
        cc.begin(younger)
        # younger acquires first (it begun later but requests first)
        assert cc.access(younger, 5, is_write=True) is None
        wait = cc.access(older, 5, is_write=True)
        assert wait is not None
        # running victim: marked, not yet delivered — it still holds 5
        assert set(cc.holders_of(5)) == {2}
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(younger, 6, is_write=False)
        assert aborted.value.reason is AbortReason.WOUND
        cc.abort(younger, AbortReason.WOUND)
        # the victim's release grants the wounder
        assert wait.triggered and wait.ok

    def test_wounded_victim_reaching_commit_is_allowed_to_finish(self, sim):
        cc = WoundWaitLocking(sim)
        older = make_txn(1, [5], writes=[5])
        younger = make_txn(2, [5], writes=[5])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(younger, 5, is_write=True) is None
        wait = cc.access(older, 5, is_write=True)
        assert wait is not None and not wait.triggered
        # commit immunity: no further access, so the wound is never delivered
        assert cc.try_commit(younger) is True
        cc.finish(younger)
        assert wait.triggered and wait.ok
        # ... and a fresh execution of the same terminal slot is innocent
        cc.begin(younger)
        assert cc.access(younger, 6, is_write=False) is None

    def test_restarted_victim_keeps_its_priority(self, sim):
        cc = WoundWaitLocking(sim)
        older = make_txn(1, [5], writes=[5])
        younger = make_txn(2, [5], writes=[5])
        cc.begin(older)
        cc.begin(younger)
        first_priority = cc.priority_of(2)
        assert cc.access(younger, 5, is_write=True) is None
        cc.access(older, 5, is_write=True)  # wounds the younger holder
        with pytest.raises(TransactionAborted):
            cc.access(younger, 6, is_write=False)
        cc.abort(younger, AbortReason.WOUND)
        cc.begin(younger)  # restart of the same transaction
        assert cc.priority_of(2) == first_priority
        # a commit retires the priority for good
        assert cc.try_commit(older) or True
        cc.finish(older)
        assert cc.priority_of(1) is None

    def test_holder_that_also_waits_for_an_upgrade_is_wounded_once(self, sim):
        """A victim reachable both as holder and as queued upgrader counts
        as ONE blocker — one wound, not two (regression: _blockers_of
        used to return it twice)."""
        cc = WoundWaitLocking(sim)
        old = make_txn(1, [4], writes=[4])
        peer = make_txn(2, [4])
        upgrader = make_txn(3, [4], writes=[4])
        for txn in (old, peer, upgrader):  # priorities 0, 1, 2
            cc.begin(txn)
        assert cc.access(peer, 4, is_write=False) is None
        assert cc.access(upgrader, 4, is_write=False) is None
        # the youngest queues for an S->X upgrade behind the older peer
        upgrade_wait = cc.access(upgrader, 4, is_write=True)
        assert upgrade_wait is not None
        # the oldest wants X: wounds the peer (running -> marked) and the
        # upgrader (blocked -> failed) — exactly one wound each
        wait = cc.access(old, 4, is_write=True)
        assert wait is not None
        assert upgrade_wait.triggered and not upgrade_wait.ok
        assert upgrade_wait.exception.reason is AbortReason.WOUND
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(peer, 5, is_write=False)
        assert aborted.value.reason is AbortReason.WOUND
        # a second wound of the upgrader would have marked it as well
        assert cc.access(upgrader, 5, is_write=False) is None

    def test_wounding_queued_victim_regrants_cleared_queue(self, sim):
        """An older requester never waits behind wounded younger waiters."""
        cc = WoundWaitLocking(sim)
        reader = make_txn(1, [8])
        young_writer = make_txn(3, [8], writes=[8])
        old_writer = make_txn(2, [8], writes=[8])
        cc.begin(reader)        # priority 0
        cc.begin(old_writer)    # priority 1 (txn_id 2)
        cc.begin(young_writer)  # priority 2 (txn_id 3)
        assert cc.access(reader, 8, is_write=False) is None
        young_wait = cc.access(young_writer, 8, is_write=True)
        assert young_wait is not None
        # the old writer wounds the queued younger writer AND the holding
        # reader is older (priority 0), so the old writer enqueues behind it
        old_wait = cc.access(old_writer, 8, is_write=True)
        assert old_wait is not None
        assert young_wait.triggered and not young_wait.ok
        # reader commits -> the old writer (now head of queue) is granted
        cc.finish(reader)
        assert old_wait.triggered and old_wait.ok


class TestWaitDie:
    def test_older_requester_waits(self, sim):
        cc = WaitDieLocking(sim)
        older = make_txn(1, [7], writes=[7])
        younger = make_txn(2, [7], writes=[7])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(younger, 7, is_write=True) is None
        wait = cc.access(older, 7, is_write=True)
        assert wait is not None and not wait.triggered
        assert cc.wait_depth() == 1

    def test_younger_requester_dies_immediately(self, sim):
        cc = WaitDieLocking(sim)
        older = make_txn(1, [7], writes=[7])
        younger = make_txn(2, [7], writes=[7])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(older, 7, is_write=True) is None
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(younger, 7, is_write=True)
        assert aborted.value.reason is AbortReason.DIE
        assert cc.wait_depth() == 0
        # nothing was enqueued: the holder's release grants nobody
        cc.abort(younger, AbortReason.DIE)
        cc.finish(older)
        assert cc.wait_depth() == 0
        assert cc.holders_of(7) == {}

    def test_death_considers_queued_waiters_too(self, sim):
        """FCFS: a requester younger than an already-queued waiter dies."""
        cc = WaitDieLocking(sim)
        holder = make_txn(3, [7], writes=[7])
        oldest = make_txn(1, [7], writes=[7])
        middle = make_txn(2, [7], writes=[7])
        cc.begin(oldest)   # priority 0
        cc.begin(middle)   # priority 1
        cc.begin(holder)   # priority 2
        assert cc.access(holder, 7, is_write=True) is None
        # oldest is older than the holder -> waits
        assert cc.access(oldest, 7, is_write=True) is not None
        # middle is older than the holder but YOUNGER than the queued
        # oldest; waiting would put an old->young edge behind a young->old
        # one, so it dies
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(middle, 7, is_write=True)
        assert aborted.value.reason is AbortReason.DIE

    def test_restarted_victim_ages_into_waiting(self, sim):
        cc = WaitDieLocking(sim)
        older = make_txn(1, [7], writes=[7])
        younger = make_txn(2, [7], writes=[7])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(older, 7, is_write=True) is None
        with pytest.raises(TransactionAborted):
            cc.access(younger, 7, is_write=True)
        cc.abort(younger, AbortReason.DIE)
        # the older commits; on restart the victim keeps priority 1 and is
        # now the oldest transaction alive -> it waits for (gets) the lock
        cc.finish(older)
        cc.begin(younger)
        assert cc.priority_of(2) == 1
        assert cc.access(younger, 7, is_write=True) is None

    def test_upgrade_deadlock_is_impossible(self, sim):
        """Two S-holders both upgrading: the younger dies, no cycle forms."""
        cc = WaitDieLocking(sim)
        older = make_txn(1, [4], writes=[4])
        younger = make_txn(2, [4], writes=[4])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(older, 4, is_write=False) is None
        assert cc.access(younger, 4, is_write=False) is None
        wait = cc.access(older, 4, is_write=True)  # upgrade: waits (older)
        assert wait is not None
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(younger, 4, is_write=True)   # upgrade: dies (younger)
        assert aborted.value.reason is AbortReason.DIE
        cc.abort(younger, AbortReason.DIE)
        assert wait.triggered and wait.ok  # the survivor got its X lock


class TestWoundWaitUpgradeDeadlock:
    def test_upgrade_deadlock_is_resolved_by_the_wound_mark(self, sim):
        """Two S-holders both upgrading: the wound mark kills the younger."""
        cc = WoundWaitLocking(sim)
        older = make_txn(1, [4], writes=[4])
        younger = make_txn(2, [4], writes=[4])
        cc.begin(older)
        cc.begin(younger)
        assert cc.access(older, 4, is_write=False) is None
        assert cc.access(younger, 4, is_write=False) is None
        wait = cc.access(older, 4, is_write=True)  # upgrade: wounds + waits
        assert wait is not None and not wait.triggered
        with pytest.raises(TransactionAborted) as aborted:
            cc.access(younger, 4, is_write=True)   # the wound is delivered
        assert aborted.value.reason is AbortReason.WOUND
        cc.abort(younger, AbortReason.WOUND)
        assert wait.triggered and wait.ok


@pytest.mark.parametrize("scheme_class", [WoundWaitLocking, WaitDieLocking])
class TestResetAndBookkeeping:
    def test_displacement_retires_the_priority(self, sim, scheme_class):
        """Conflict victims age; displaced transactions leave the table
        (regression: a never-resubmitted displaced txn leaked its entry)."""
        cc = scheme_class(sim)
        displaced = make_txn(1, [3], writes=[3])
        victim = make_txn(2, [5], writes=[5])
        cc.begin(displaced)
        cc.begin(victim)
        cc.abort(displaced, AbortReason.DISPLACEMENT)
        assert cc.priority_of(1) is None
        reason = (AbortReason.WOUND if scheme_class is WoundWaitLocking
                  else AbortReason.DIE)
        cc.abort(victim, reason)
        assert cc.priority_of(2) == 1  # the conflict victim keeps aging
