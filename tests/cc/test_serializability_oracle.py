"""The serializability oracle: every registered scheme, one checker.

Instead of per-scheme hand-written assertions, the whole family is
certified the history-based way (HISTEX / AWDIT style): an opt-in
recorder observes each scheme through the public
:class:`~repro.cc.base.ConcurrencyControl` surface while the *real*
closed transaction system runs seeded randomized schedules, and a
conflict-graph acyclicity check decides whether the committed
transactions are serializable.  A scheme added as a row of
:data:`repro.cc.registry.SCHEMES` is picked up — and certified —
automatically.

A deliberately broken scheme (no conflict resolution at all) proves the
oracle has teeth: the same workload that every real scheme passes
produces a conflict cycle under it.
"""

import pytest

from repro.cc import (
    AbortReason,
    CCSpec,
    CommittedExecution,
    ConcurrencyControl,
    HistoryRecorder,
    RecordingConcurrencyControl,
    cc_kinds,
    cc_level,
    check_serializability,
    conflict_graph,
)
from repro.sim.engine import Simulator
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem


def contended_params(seed: int) -> SystemParams:
    """Small database, heavy writes, no think time: dense conflicts fast."""
    return SystemParams(
        n_terminals=16, think_time=0.0, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, restart_delay=0.005,
        seed=seed,
        workload=WorkloadParams(db_size=40, accesses_per_txn=5,
                                query_fraction=0.1, write_fraction=0.8))


def record_run(scheme: ConcurrencyControl, sim: Simulator, seed: int,
               horizon: float = 4.0) -> HistoryRecorder:
    """Run the closed system with ``scheme`` under observation."""
    recorder = HistoryRecorder()
    system = TransactionSystem(
        contended_params(seed), sim=sim,
        cc=RecordingConcurrencyControl(scheme, recorder))
    system.run(until=horizon)
    return recorder


#: the kinds that promise full serializability; schemes registered at a
#: weaker level (snapshot isolation) are certified at *their* declared
#: level in ``test_isolation_levels.py`` instead
SERIALIZABLE_KINDS = tuple(kind for kind in cc_kinds()
                           if cc_level(kind) == "serializable")


class TestOracleOverEveryRegisteredKind:
    def test_weaker_levels_are_excluded_not_forgotten(self):
        """Every registered kind is either certified here or declared weaker."""
        assert set(cc_kinds()) - set(SERIALIZABLE_KINDS) == {"snapshot_isolation"}

    @pytest.mark.parametrize("kind", SERIALIZABLE_KINDS)
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_randomized_schedules_are_serializable(self, kind, seed):
        sim = Simulator()
        recorder = record_run(CCSpec.make(kind).build(sim), sim, seed)
        # the schedule must actually exercise the scheme: enough commits to
        # build a dense graph, and more executions than commits (aborts
        # happened), otherwise the check is vacuous at this contention
        assert len(recorder.committed) > 50, f"{kind}: too few commits"
        assert recorder.executions > len(recorder.committed), (
            f"{kind}: the contended run never aborted — vacuous schedule")
        verdict = check_serializability(recorder.committed)
        assert verdict.serializable, (
            f"{kind}: committed history is NOT serializable; "
            f"witness cycle {verdict.cycle} over {verdict.transactions} "
            f"transactions / {verdict.edges} edges")
        # sanity: the graph really had edges to order (conflicts existed)
        assert verdict.edges > 0, f"{kind}: conflict-free run proves nothing"


class BrokenNoConcurrencyControl(ConcurrencyControl):
    """A deliberately broken scheme: records accesses, resolves nothing.

    Every transaction commits unconditionally, so overlapping updaters
    freely interleave and the committed history cannot be serialized —
    the fixture that proves the oracle can fail.
    """

    name = "broken-no-cc"

    def __init__(self, sim: Simulator):
        self.sim = sim

    def begin(self, txn) -> None:
        pass

    def access(self, txn, item: int, is_write: bool):
        txn.record_access(item, is_write)
        return None

    def try_commit(self, txn) -> bool:
        return True

    def finish(self, txn) -> None:
        pass

    def abort(self, txn, reason: AbortReason) -> None:
        pass


class TestOracleCanFail:
    def test_broken_scheme_is_caught(self):
        sim = Simulator()
        recorder = record_run(BrokenNoConcurrencyControl(sim), sim, seed=3)
        assert len(recorder.committed) > 50
        verdict = check_serializability(recorder.committed)
        assert not verdict.serializable, (
            "the oracle certified a scheme with no concurrency control — "
            "it cannot catch anything")
        # the witness cycle is usable: closed, and every edge is real
        cycle = verdict.cycle
        assert cycle[0] == cycle[-1] and len(cycle) >= 3
        graph = conflict_graph(recorder.committed)
        for source, target in zip(cycle, cycle[1:]):
            assert target in graph[source]


def committed(txn_id, reads=(), writes=(), commit=(0.0, 0)):
    """Hand-built history entry.

    Reads are ``(item, time, seq)`` triples — version defaults to ``None``
    (the initial version) — or full ``(item, time, seq, version)`` tuples
    naming the writer whose version was observed.
    """
    normalized = tuple(read if len(read) == 4 else (*read, None)
                       for read in reads)
    return CommittedExecution(
        txn_id=txn_id, reads=normalized, writes=tuple(writes),
        commit_time=commit[0], commit_seq=commit[1])


class TestCheckerOnHandBuiltHistories:
    def test_empty_and_singleton_histories_are_serializable(self):
        assert check_serializability([])
        assert check_serializability(
            [committed(1, reads=[(5, 0.1, 1)], writes=[5], commit=(0.2, 2))])

    def test_sequential_conflicting_transactions_are_serializable(self):
        # T2 observed T1's version of granule 5 and installed its successor
        history = [
            committed(1, reads=[(5, 0.1, 1)], writes=[5], commit=(0.2, 2)),
            committed(2, reads=[(5, 0.3, 3, 1)], writes=[5], commit=(0.4, 4)),
        ]
        verdict = check_serializability(history)
        assert verdict.serializable
        # w-r, r-w and w-w conflicts all point 1 -> 2: one edge in the graph
        assert verdict.edges == 1

    def test_cross_read_write_cycle_is_detected(self):
        # T1 reads A before T2 installs A; T2 reads B before T1 installs B
        # (both observed the initial version): rw anti-dependencies
        # T1 -> T2 (on A) and T2 -> T1 (on B) close the classic cycle
        history = [
            committed(1, reads=[(1, 0.1, 1)], writes=[2], commit=(0.5, 5)),
            committed(2, reads=[(2, 0.2, 2)], writes=[1], commit=(0.6, 6)),
        ]
        verdict = check_serializability(history)
        assert not verdict.serializable
        assert set(verdict.cycle) == {1, 2}

    def test_reads_do_not_conflict_with_reads(self):
        history = [
            committed(1, reads=[(7, 0.1, 1)], commit=(0.3, 3)),
            committed(2, reads=[(7, 0.2, 2)], commit=(0.4, 4)),
        ]
        verdict = check_serializability(history)
        assert verdict.serializable
        assert verdict.edges == 0

    def test_tie_times_are_ordered_by_sequence(self):
        # same instant: the sequence number (engine processing order)
        # decides which write installed first
        history = [
            committed(1, writes=[9], commit=(1.0, 2)),
            committed(2, writes=[9], commit=(1.0, 1)),
        ]
        graph = conflict_graph(history)
        assert graph[2] == {1}
        assert graph[1] == set()


class TestRecorderMechanics:
    def test_aborted_executions_leave_no_trace(self):
        recorder = HistoryRecorder()
        recorder.start_execution(1)
        recorder.record_read(1, 5, 0.1)
        recorder.record_write_intent(1, 5)
        recorder.record_abort(1)
        recorder.start_execution(1)
        recorder.record_read(1, 6, 0.2)
        recorder.record_commit(1, 0.3)
        (execution,) = recorder.committed
        seq = execution.reads[0][2]
        # no committed writer of granule 6: the initial version (None)
        assert execution.reads == ((6, 0.2, seq, None),)
        assert execution.writes == ()
        assert recorder.executions == 2

    def test_blocking_reads_are_recorded_at_grant_not_request(self):
        """A lock wait records its read when the grant fires."""
        from repro.cc.two_phase_locking import TwoPhaseLocking
        from repro.tp.transaction import Transaction, TransactionClass

        sim = Simulator()
        recorder = HistoryRecorder()
        cc = RecordingConcurrencyControl(TwoPhaseLocking(sim), recorder)

        def txn_record(txn_id, items, writes=()):
            flags = tuple(item in writes for item in items)
            return Transaction(
                txn_id=txn_id, terminal_id=0,
                txn_class=(TransactionClass.UPDATER if any(flags)
                           else TransactionClass.QUERY),
                items=tuple(items), write_flags=flags)

        holder = txn_record(1, [5], writes=[5])
        reader = txn_record(2, [5])
        cc.begin(holder)
        cc.begin(reader)
        assert cc.access(holder, 5, is_write=True) is None
        wait = cc.access(reader, 5, is_write=False)
        assert wait is not None

        def release_later():
            yield sim.timeout(2.0)
            cc.finish(holder)

        sim.process(release_later())
        sim.run(until=5.0)
        cc.finish(reader)  # finish() records the commit for us
        by_txn = {execution.txn_id: execution
                  for execution in recorder.committed}
        (item, time, _seq, version) = by_txn[2].reads[0]
        assert item == 5
        assert time == pytest.approx(2.0)  # grant time, not request time 0.0
        assert version == 1  # the holder committed before the grant fired
        assert by_txn[1].writes == (5,)
