"""When strict 2PL searches the waits-for graph, and that skipping is exact.

``TwoPhaseLocking`` searches for a cycle only when another transaction is
queued on a granule the requester holds.  These tests check the skip
against a reference that searches on every block, as the detector always
did, and pin the cases the argument in the class docstring rests on.
"""

import random

import pytest

from repro.cc.base import AbortReason, TransactionAborted
from repro.cc.two_phase_locking import LockMode, TwoPhaseLocking
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass

POLICIES = ("youngest", "oldest", "fewest_locks")


def make_txn(txn_id, items):
    return Transaction(txn_id=txn_id, terminal_id=0, txn_class=TransactionClass.UPDATER,
                       items=tuple(items), write_flags=(True,) * len(items))


class SearchOnEveryBlock(TwoPhaseLocking):
    """The reference detector: a search on every block, and after every victim."""

    def _block(self, txn_id, item, mode, state):
        request = self._enqueue(txn_id, item, mode, state)
        victim = self._detect_deadlock(txn_id)
        while victim is not None:
            self._withdraw(victim, TransactionAborted(
                AbortReason.DEADLOCK,
                f"victim of deadlock on granule {self._waiting_for_item[victim]}"))
            victim = self._detect_deadlock(txn_id)
        return request


class Recording:
    """Counts the upgrade blocks and searches of the scheme it joins, and logs its victims."""

    def __init__(self, sim, victim_policy):
        super().__init__(sim, victim_policy)
        self.upgrade_blocks = 0
        self.searches = 0
        self.victims = []

    def _block(self, txn_id, item, mode, state):
        self.upgrade_blocks += txn_id in state.holders
        return super()._block(txn_id, item, mode, state)

    def _detect_deadlock(self, start):
        self.searches += 1
        victim = super()._detect_deadlock(start)
        if victim is not None:
            self.victims.append((self.sim.now, start, victim))
        return victim


class RecordingReference(Recording, SearchOnEveryBlock):
    pass


class RecordingScheme(Recording, TwoPhaseLocking):
    pass


def access_plan(rng, n_items):
    """1-4 random granules; some are read first and upgraded to a write at the end."""
    items = rng.sample(range(n_items), rng.randint(1, 4))
    plan, upgrades = [], []
    for item in items:
        roll = rng.random()
        plan.append((item, 0.4 <= roll < 0.7))
        if roll >= 0.7:
            upgrades.append(item)
    return plan + [(item, True) for item in upgrades]


def run_schedule(scheme_class, policy, seed, n_transactions=12, n_items=7):
    """Run one seeded closed schedule; return its log and the scheme."""
    rng = random.Random(seed)
    sim = Simulator()
    cc = scheme_class(sim, policy)
    log = []

    def transaction(txn_id):
        for _ in range(500):
            plan = access_plan(rng, n_items)
            txn = make_txn(txn_id, [item for item, _ in plan])
            cc.begin(txn)
            try:
                for item, is_write in plan:
                    grant = cc.access(txn, item, is_write)
                    if grant is None:
                        log.append((sim.now, "granted", txn_id, item, is_write))
                    else:
                        mode = yield grant
                        log.append((sim.now, "waited", txn_id, item, mode.value))
                    yield sim.timeout(rng.random() * 0.1)
                cc.finish(txn)
                log.append((sim.now, "commit", txn_id))
                return
            except TransactionAborted as aborted:
                log.append((sim.now, "failed", txn_id, aborted.reason.value, str(aborted)))
                cc.abort(txn, aborted.reason)
                yield sim.timeout(rng.random() * 0.05)
        raise AssertionError(f"txn {txn_id} never committed")

    for txn_id in range(n_transactions):
        sim.process(transaction(txn_id))
    sim.run(until=10_000.0)
    assert sum(entry[1] == "commit" for entry in log) == n_transactions
    return log, cc


@pytest.mark.parametrize("policy", POLICIES)
def test_skipping_searches_changes_no_decision(policy):
    """Same grants, failed grants and victims as a search on every block."""
    searches = skipped = victims = upgrade_blocks = 0
    for seed in range(25):
        reference_log, reference = run_schedule(RecordingReference, policy, seed)
        log, scheme = run_schedule(RecordingScheme, policy, seed)
        assert log == reference_log, f"seed {seed}"
        assert scheme.victims == reference.victims, f"seed {seed}"
        searches += scheme.searches
        skipped += reference.searches - scheme.searches
        victims += len(scheme.victims)
        upgrade_blocks += scheme.upgrade_blocks
    # the schedules deadlock, block on upgrades, and let the skip work
    assert victims > 0
    assert upgrade_blocks > 0
    assert searches > 0
    assert skipped > 0


def test_a_block_nobody_waits_behind_runs_no_search(monkeypatch):
    searches = []
    find_cycle = TwoPhaseLocking._find_cycle

    def counting(self, node, path, on_path, visited):
        if not path:
            searches.append(node)
        return find_cycle(self, node, path, on_path, visited)

    monkeypatch.setattr(TwoPhaseLocking, "_find_cycle", counting)
    sim = Simulator()
    cc = TwoPhaseLocking(sim)
    a, b, c = make_txn(1, [1, 2]), make_txn(2, [1, 2, 3]), make_txn(3, [2])
    for txn in (a, b, c):
        cc.begin(txn)
        sim.run(until=sim.now + 1.0)
    assert cc.access(a, 1, is_write=True) is None
    assert cc.access(b, 2, is_write=True) is None
    assert cc.access(b, 3, is_write=True) is None
    # B holds 2 and 3 and nobody queues on them: no cycle can close
    wait_b = cc.access(b, 1, is_write=True)
    assert wait_b is not None
    # C holds nothing
    wait_c = cc.access(c, 2, is_write=True)
    assert wait_c is not None
    assert searches == []
    # A holds 1, on which B waits: A -> B -> A closes, and is searched;
    # once B, the younger, is withdrawn nobody waits behind A any more
    wait_a = cc.access(a, 2, is_write=True)
    assert searches == [1]
    sim.run(until=sim.now + 1.0)
    assert wait_b.triggered and wait_b.exception.reason is AbortReason.DEADLOCK
    assert not wait_a.triggered and not wait_c.triggered


@pytest.mark.parametrize("policy", POLICIES)
def test_an_upgrade_deadlock_through_the_own_granule_is_found(policy):
    """R and A read X, W queues to write X, then R asks for the upgrade.

    W waits for R as a holder of X, so R -> W -> R is a cycle; the only
    waiter behind R's locks is on the granule R queues for itself.
    """
    sim = Simulator()
    cc = TwoPhaseLocking(sim, victim_policy=policy)
    x = 5
    names = {"R": 1, "A": 2, "W": 3}
    txns = {name: make_txn(txn_id, [x]) for name, txn_id in names.items()}
    for name in ("R", "A", "W"):
        cc.begin(txns[name])
        sim.run(until=sim.now + 1.0)
    assert cc.access(txns["R"], x, is_write=False) is None
    assert cc.access(txns["A"], x, is_write=False) is None
    wait_w = cc.access(txns["W"], x, is_write=True)
    assert wait_w is not None
    wait_r = cc.access(txns["R"], x, is_write=True)
    assert wait_r is not None
    sim.run(until=sim.now + 1.0)
    # R began first and W last; each holds at most X, W holds nothing
    victim = {"youngest": "W", "oldest": "R", "fewest_locks": "W"}[policy]
    failed = {name for name, wait in (("R", wait_r), ("W", wait_w)) if wait.triggered}
    assert failed == {victim}
    aborted = wait_r if victim == "R" else wait_w
    assert aborted.exception.reason is AbortReason.DEADLOCK
    cc.abort(txns[victim], AbortReason.DEADLOCK)
    cc.finish(txns["A"])
    sim.run(until=sim.now + 1.0)
    survivor, wait = ("W", wait_w) if victim == "R" else ("R", wait_r)
    assert wait.ok and wait.value is LockMode.EXCLUSIVE
    assert cc.holders_of(x) == {names[survivor]: LockMode.EXCLUSIVE}
