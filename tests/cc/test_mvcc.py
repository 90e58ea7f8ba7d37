"""Unit tests of the snapshot-isolation scheme (:mod:`repro.cc.mvcc`).

The closed-system behaviour of the scheme (conservation, rise-then-fall,
certification at its declared level) is covered by the cross-scheme suites;
these tests pin the mechanism itself: snapshot visibility, non-blocking
reads, first-committer-wins validation, and bounded version storage.
"""

import pytest

from repro.cc import AbortReason, CCSpec, SnapshotIsolation
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass


def txn_record(txn_id, items=(), writes=()):
    """A bare transaction record for driving the scheme by hand."""
    items = tuple(items)
    flags = tuple(item in writes for item in items)
    return Transaction(
        txn_id=txn_id, terminal_id=0,
        txn_class=(TransactionClass.UPDATER if any(flags)
                   else TransactionClass.QUERY),
        items=items, write_flags=flags)


@pytest.fixture
def si():
    return SnapshotIsolation(Simulator())


class TestRegistryIntegration:
    def test_registry_builds_the_scheme(self):
        sim = Simulator()
        scheme = CCSpec.make("snapshot_isolation").build(sim)
        assert isinstance(scheme, SnapshotIsolation)
        assert scheme.multiversion is True


class TestSnapshotVisibility:
    def test_reader_sees_the_version_of_its_snapshot(self, si):
        writer = txn_record(1, items=[5], writes=[5])
        si.begin(writer)
        si.access(writer, 5, is_write=True)
        assert si.try_commit(writer)
        si.finish(writer)

        late = txn_record(2, items=[5])
        si.begin(late)
        si.access(late, 5, is_write=False)
        assert si.observed_version(late, 5) == 1

    def test_old_snapshot_keeps_seeing_the_old_version(self, si):
        early = txn_record(2, items=[5])
        si.begin(early)  # snapshot taken BEFORE the writer commits

        writer = txn_record(1, items=[5], writes=[5])
        si.begin(writer)
        si.access(writer, 5, is_write=True)
        assert si.try_commit(writer)
        si.finish(writer)

        si.access(early, 5, is_write=False)
        assert si.observed_version(early, 5) is None  # the initial version

    def test_reads_never_block(self, si):
        writer = txn_record(1, items=[5], writes=[5])
        si.begin(writer)
        si.access(writer, 5, is_write=True)  # uncommitted write in flight
        reader = txn_record(2, items=[5])
        si.begin(reader)
        assert si.access(reader, 5, is_write=False) is None
        assert si.access(writer, 5, is_write=True) is None

    def test_restarted_execution_observes_its_new_snapshot(self, si):
        reader = txn_record(2, items=[5])
        si.begin(reader)  # snapshot taken BEFORE the writer commits
        si.access(reader, 5, is_write=False)
        assert si.observed_version(reader, 5) is None

        writer = txn_record(1, items=[5], writes=[5])
        si.begin(writer)
        si.access(writer, 5, is_write=True)
        assert si.try_commit(writer)
        si.finish(writer)
        assert si.observed_version(reader, 5) is None  # the old snapshot

        si.abort(reader, AbortReason.CERTIFICATION)
        reader.start_execution(0.0)
        si.begin(reader)  # the restart takes a fresh snapshot
        si.access(reader, 5, is_write=False)
        assert si.observed_version(reader, 5) == 1


class TestFirstCommitterWins:
    def test_concurrent_writer_of_same_granule_fails_certification(self, si):
        first = txn_record(1, items=[5], writes=[5])
        second = txn_record(2, items=[5], writes=[5])
        si.begin(first)
        si.begin(second)
        si.access(first, 5, is_write=True)
        si.access(second, 5, is_write=True)
        assert si.try_commit(first)
        si.finish(first)

        assert first.last_conflicts == 0
        assert not si.try_commit(second)
        assert second.last_conflicts == 1

    def test_disjoint_write_sets_both_commit(self, si):
        # the write-skew shape: each reads what the other writes — SI
        # certifies both because first-committer-wins only compares writes
        left = txn_record(1, items=[5, 6], writes=[6])
        right = txn_record(2, items=[5, 6], writes=[5])
        si.begin(left)
        si.begin(right)
        for txn, read, write in ((left, 5, 6), (right, 6, 5)):
            si.access(txn, read, is_write=False)
            si.access(txn, write, is_write=True)
        assert si.try_commit(left)
        si.finish(left)
        assert si.try_commit(right)
        si.finish(right)
        assert left.last_conflicts == right.last_conflicts == 0

    def test_certifying_without_begin_fails_loudly(self, si):
        orphan = txn_record(9, items=[1], writes=[1])
        with pytest.raises(RuntimeError, match="without begin"):
            si.try_commit(orphan)


class TestLifecycleAndGarbageCollection:
    def test_version_store_stays_bounded_without_old_snapshots(self, si):
        for txn_id in range(1, 50):
            txn = txn_record(txn_id, items=[5], writes=[5])
            si.begin(txn)
            si.access(txn, 5, is_write=True)
            assert si.try_commit(txn)
            si.finish(txn)
        # no active snapshot pins history: only the latest version survives
        assert si.version_count(5) == 1

    def test_gc_never_collects_what_an_active_snapshot_sees(self, si):
        pinner = txn_record(99, items=[5])
        si.begin(pinner)  # snapshot 0 stays active throughout
        for txn_id in range(1, 10):
            txn = txn_record(txn_id, items=[5], writes=[5])
            si.begin(txn)
            si.access(txn, 5, is_write=True)
            assert si.try_commit(txn)
            si.finish(txn)
        assert si.version_count(5) == 9  # all pinned by snapshot 0
        si.access(pinner, 5, is_write=False)
        assert si.observed_version(pinner, 5) is None  # still the initial one
        si.finish(pinner)
        # releasing the snapshot lets the next GC pass collapse the chain
        closer = txn_record(100, items=[5], writes=[5])
        si.begin(closer)
        si.access(closer, 5, is_write=True)
        assert si.try_commit(closer)
        si.finish(closer)
        assert si.version_count(5) == 1
