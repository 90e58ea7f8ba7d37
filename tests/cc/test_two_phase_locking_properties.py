"""Randomized property tests for the two-phase locking scheme's invariants.

``tests/cc/test_two_phase_locking.py`` pins *specific* lock-table
interactions; these tests pin the scheme's *semantic invariants* on
randomly generated schedules, in the style of
``tests/sim/test_engine_properties.py``: transactions run as simulation
processes over a deliberately tiny database (so conflicts, waits and
deadlocks are frequent), and all randomness comes from seeded
:mod:`random` (stdlib) instances, so runs are fully reproducible.

Invariants covered:

* **mode compatibility at every grant** — a granule's holders are either
  all shared or exactly one exclusive owner, at every point a lock is
  acquired;
* **lock-grant conservation** — when every transaction has finished, the
  lock table is empty: no holders and no waiters,
  whatever mix of commits, voluntary aborts and deadlock aborts occurred;
* **no grants after release** — a transaction that released its locks
  (commit or final abort) never reappears as a holder;
* **an acyclic waits-for graph** — after every ``access`` returns, no
  waiting transaction reaches a cycle: deadlock detection removes every
  cycle the block closed, which is what lets it skip the search when
  nobody waits behind the requester;
* **deadlock victims always make progress** — under every victim policy,
  every transaction of a write-heavy closed workload eventually commits:
  victim selection plus restart may delay a transaction but can never
  starve it into livelock.
"""

import random

import pytest

from repro.cc.base import AbortReason, TransactionAborted
from repro.cc.two_phase_locking import LockMode, TwoPhaseLocking
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass

SEEDS = [3, 11, 42, 2024]

#: granules of the property-test database: small enough that random
#: transactions collide constantly
N_ITEMS = 12


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


def assert_mode_compatible(cc, item):
    """A granule is held all-shared or by exactly one exclusive owner."""
    holders = cc.holders_of(item)
    if LockMode.EXCLUSIVE in holders.values():
        assert len(holders) == 1, (
            f"granule {item} held exclusively but shared: {holders}"
        )


def assert_no_waits_for_cycle(cc):
    """No waiting transaction reaches a cycle in the waits-for graph.

    The edges are read off the lock table: a waiter waits for the other
    holders of its granule and for the waiters queued ahead of it.
    """
    edges = {}
    for state in cc._locks.values():
        ahead = []
        for request in state.waiters:
            edges[request.txn_id] = (
                {t for t in state.holders if t != request.txn_id} | set(ahead))
            ahead.append(request.txn_id)
    # Kahn's algorithm over the waiting transactions: whatever cannot be
    # peeled off, sink first, lies on or leads into a cycle
    remaining = {t: {s for s in successors if s in edges} for t, successors in edges.items()}
    sinks = [t for t, successors in remaining.items() if not successors]
    predecessors = {}
    for t, successors in remaining.items():
        for successor in successors:
            predecessors.setdefault(successor, []).append(t)
    while sinks:
        sink = sinks.pop()
        for t in predecessors.get(sink, ()):
            remaining[t].discard(sink)
            if not remaining[t]:
                sinks.append(t)
        del remaining[sink]
    assert not remaining, f"waiters reach a waits-for cycle: {sorted(remaining)}"


def random_workload(rng, txn_id, write_probability=0.5, max_items=4):
    size = rng.randint(1, max_items)
    items = rng.sample(range(N_ITEMS), size)
    writes = [item for item in items if rng.random() < write_probability]
    if not writes and write_probability >= 1.0:
        writes = list(items)
    return make_txn(txn_id, items, writes)


@pytest.mark.parametrize("seed", SEEDS)
def test_lock_grant_conservation_under_random_schedules(seed):
    """Whatever happens, the lock table drains to empty at the end."""
    rng = random.Random(seed)
    sim = Simulator()
    cc = TwoPhaseLocking(sim)
    finished = []
    requests = [0]
    waits = [0]

    def transaction(txn_id):
        attempts = 0
        while True:
            attempts += 1
            assert attempts < 500, f"txn {txn_id} livelocked"
            txn = random_workload(rng, txn_id)
            cc.begin(txn)
            try:
                for item, is_write in txn.accesses:
                    requests[0] += 1
                    grant = cc.access(txn, item, is_write)
                    assert_no_waits_for_cycle(cc)
                    if grant is not None:
                        waits[0] += 1
                        yield grant
                    assert txn_id in cc.holders_of(item), "grant without holdership"
                    assert_mode_compatible(cc, item)
                    yield sim.timeout(rng.random() * 0.1)
                if rng.random() < 0.15:
                    # a voluntary abort (e.g. displacement) must clean up too
                    cc.abort(txn, AbortReason.DISPLACEMENT)
                else:
                    assert cc.try_commit(txn), "2PL reaching commit always commits"
                    cc.finish(txn)
                finished.append(txn_id)
                return
            except TransactionAborted as aborted:
                assert aborted.reason is AbortReason.DEADLOCK
                cc.abort(txn, aborted.reason)
                yield sim.timeout(rng.random() * 0.05)

    n_transactions = 25
    for txn_id in range(n_transactions):
        sim.process(transaction(txn_id))
    sim.run(until=10_000.0)

    assert len(finished) == n_transactions, "every transaction must terminate"
    # conservation: nothing is held, nothing waits
    assert cc.wait_depth() == 0
    for item in range(N_ITEMS):
        assert cc.holders_of(item) == {}, f"granule {item} leaked holders"
    assert requests[0] >= n_transactions
    assert waits[0] > 0, "the tiny database must force real waits"


@pytest.mark.parametrize("seed", SEEDS)
def test_no_grants_after_release(seed):
    """A transaction that released its locks never reappears as a holder."""
    rng = random.Random(seed)
    sim = Simulator()
    cc = TwoPhaseLocking(sim)
    released = set()

    def scan_for_released():
        for item in range(N_ITEMS):
            for holder in cc.holders_of(item):
                assert holder not in released, (
                    f"txn {holder} granted a lock on {item} after releasing"
                )

    def transaction(txn_id):
        while True:
            txn = random_workload(rng, txn_id)
            cc.begin(txn)
            try:
                for item, is_write in txn.accesses:
                    grant = cc.access(txn, item, is_write)
                    if grant is not None:
                        yield grant
                    yield sim.timeout(rng.random() * 0.1)
                assert cc.try_commit(txn)
                released.add(txn_id)
                cc.finish(txn)
                return
            except TransactionAborted as aborted:
                cc.abort(txn, aborted.reason)
                yield sim.timeout(rng.random() * 0.05)

    def monitor():
        while True:
            scan_for_released()
            yield sim.timeout(0.05)

    for txn_id in range(20):
        sim.process(transaction(txn_id))
    sim.process(monitor())
    sim.run(until=10_000.0)

    assert len(released) == 20
    scan_for_released()


@pytest.mark.parametrize("policy", ["youngest", "oldest", "fewest_locks"])
@pytest.mark.parametrize("seed", SEEDS)
def test_deadlock_victims_always_make_progress(seed, policy):
    """Under every victim policy, a write-heavy workload fully commits.

    All-write transactions over six granules deadlock constantly; victim
    selection (and the restart that follows) must never starve any of
    them — in particular the ``oldest`` policy must not re-sacrifice one
    transaction forever.
    """
    rng = random.Random(seed * 7 + len(policy))
    sim = Simulator()
    cc = TwoPhaseLocking(sim, victim_policy=policy)
    committed = []
    deadlock_aborts = [0]

    def transaction(txn_id):
        attempts = 0
        while True:
            attempts += 1
            assert attempts < 500, f"txn {txn_id} starved under {policy!r}"
            size = rng.randint(2, 3)
            items = rng.sample(range(6), size)
            txn = make_txn(txn_id, items, writes=items)
            cc.begin(txn)
            try:
                for item, is_write in txn.accesses:
                    grant = cc.access(txn, item, is_write)
                    assert_no_waits_for_cycle(cc)
                    if grant is not None:
                        yield grant
                    yield sim.timeout(0.01 + rng.random() * 0.05)
                assert cc.try_commit(txn)
                cc.finish(txn)
                committed.append(txn_id)
                return
            except TransactionAborted as aborted:
                assert aborted.reason is AbortReason.DEADLOCK
                deadlock_aborts[0] += 1
                cc.abort(txn, aborted.reason)
                yield sim.timeout(rng.random() * 0.02)

    n_transactions = 15
    for txn_id in range(n_transactions):
        sim.process(transaction(txn_id))
    sim.run(until=10_000.0)

    assert sorted(committed) == list(range(n_transactions))
    # the workload is contended enough that victims were actually selected
    assert deadlock_aborts[0] > 0
    assert cc.wait_depth() == 0
    for item in range(6):
        assert cc.holders_of(item) == {}
