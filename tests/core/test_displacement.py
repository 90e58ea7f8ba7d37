"""Tests for the displacement policy (victim selection)."""

import math
import pickle

import pytest

from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.tp.transaction import Transaction, TransactionClass


def make_txn(txn_id, admitted_at, read_only=False, touched=0):
    txn = Transaction(
        txn_id=txn_id,
        terminal_id=0,
        txn_class=TransactionClass.QUERY if read_only else TransactionClass.UPDATER,
        items=(txn_id,),
        write_flags=(False,) if read_only else (True,),
        submitted_at=admitted_at,
    )
    txn.admitted_at = admitted_at
    txn.read_set = set(range(touched))
    return txn


class TestSelection:
    def test_no_victims_when_disabled(self):
        policy = DisplacementPolicy(enabled=False)
        active = [make_txn(i, float(i)) for i in range(10)]
        assert policy.select_victims(active, new_limit=2) == []

    def test_no_victims_when_under_limit(self):
        policy = DisplacementPolicy()
        active = [make_txn(i, float(i)) for i in range(3)]
        assert policy.select_victims(active, new_limit=5) == []

    def test_no_victims_for_infinite_limit(self):
        policy = DisplacementPolicy()
        active = [make_txn(i, float(i)) for i in range(3)]
        assert policy.select_victims(active, new_limit=math.inf) == []

    def test_selects_exactly_the_overshoot(self):
        policy = DisplacementPolicy()
        active = [make_txn(i, float(i)) for i in range(10)]
        victims = policy.select_victims(active, new_limit=6)
        assert len(victims) == 4

    def test_youngest_first(self):
        policy = DisplacementPolicy(criterion=VictimCriterion.YOUNGEST)
        active = [make_txn(i, admitted_at=float(i)) for i in range(5)]
        victims = policy.select_victims(active, new_limit=3)
        assert [victim.txn_id for victim in victims] == [4, 3]

    def test_oldest_first(self):
        policy = DisplacementPolicy(criterion=VictimCriterion.OLDEST)
        active = [make_txn(i, admitted_at=float(i)) for i in range(5)]
        victims = policy.select_victims(active, new_limit=3)
        assert [victim.txn_id for victim in victims] == [0, 1]

    def test_least_work_first(self):
        policy = DisplacementPolicy(criterion=VictimCriterion.LEAST_WORK)
        active = [make_txn(i, 0.0, touched=i) for i in range(5)]
        victims = policy.select_victims(active, new_limit=3)
        assert [victim.txn_id for victim in victims] == [0, 1]

    def test_queries_first(self):
        policy = DisplacementPolicy(criterion=VictimCriterion.QUERIES_FIRST)
        active = [
            make_txn(0, admitted_at=0.0, read_only=False),
            make_txn(1, admitted_at=1.0, read_only=True),
            make_txn(2, admitted_at=2.0, read_only=False),
            make_txn(3, admitted_at=3.0, read_only=True),
        ]
        victims = policy.select_victims(active, new_limit=2)
        assert {victim.txn_id for victim in victims} == {1, 3}

    def test_hysteresis_suppresses_small_overshoot(self):
        policy = DisplacementPolicy(hysteresis=2)
        active = [make_txn(i, float(i)) for i in range(6)]
        assert policy.select_victims(active, new_limit=4) == []
        victims = policy.select_victims(active, new_limit=2)
        assert len(victims) == 4

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            DisplacementPolicy(hysteresis=-1)

    def test_selection_leaves_the_policy_unchanged(self):
        """The policy counts nothing: the run's measurement process does.
        Selecting victims leaves it equal to, and pickling like, a fresh one."""
        policy = DisplacementPolicy()
        before = pickle.dumps(policy)
        active = [make_txn(i, float(i)) for i in range(10)]
        selected = (len(policy.select_victims(active, new_limit=5))
                    + len(policy.select_victims(active, new_limit=8)))
        assert selected == 7
        assert policy == DisplacementPolicy()
        assert pickle.dumps(policy) == before
        assert not hasattr(policy, "total_displaced")
