"""History-based isolation oracle for concurrency control schemes.

The isolation-testing literature (HISTEX; AWDIT) argues that the way to
trust a *family* of concurrency control schemes is not per-scheme
hand-written assertions but a checker that works on the recorded history:
record what every transaction actually read, wrote and committed, then
decide from the history alone whether the committed transactions satisfy
the isolation level the scheme declares.  A scheme added to the registry
is then certified by exactly the same oracle as the existing ones.

Three pieces:

* :class:`RecordingConcurrencyControl` — an opt-in decorator around any
  :class:`~repro.cc.base.ConcurrencyControl` that observes the scheme
  through its public surface only (``begin`` / ``access`` / ``try_commit``
  / ``finish`` / ``abort``) and feeds a :class:`HistoryRecorder`.  Reads
  are recorded when they *happen*: immediately for non-blocking schemes,
  at the lock **grant** (not the request) for blocking ones — the wrapper
  registers a callback on the returned wait event and skips requests that
  fail.  Aborted executions leave no trace; only the committed execution
  of each transaction enters the history.
* :func:`check_serializability` — builds the direct serialization graph
  over the committed executions and reports a cycle if one exists.
* :func:`classify_anomalies` / :func:`check_isolation` — name the weak
  isolation anomalies a history exhibits (lost update, write skew, long
  fork, non-repeatable read) and check them against a *declared* level,
  so the oracle can certify "snapshot isolation admits write skew but
  nothing worse" rather than only acyclicity.

**Read-version model.**  Every read is recorded as the 4-tuple
``(granule, time, seq, version)`` where ``version`` is the txn_id of the
committed writer whose value the read returned (``None`` for the initial,
never-written version).  For single-version schemes the recorder resolves
the version itself: the read returns, by definition, the latest committed
version at the instant the read takes effect, and the recorder knows that
instant exactly (the engine processes a writer's commit record before any
dependent grant callback).  A **multiversion** scheme may serve an *older*
version — its snapshot — so the recorder asks the scheme
(:meth:`~repro.cc.base.ConcurrencyControl.observed_version`) instead of
assuming currency.  Writes take effect at the writer's commit
``(commit_time, commit_seq)``: optimistic schemes buffer writes until
commit by definition, under strict 2PL the exclusive lock is held until
commit, and a multiversion store installs new versions at commit.

**Direct serialization graph (DSG).**  Following Adya's formalisation,
the per-granule version order is the writers' commit order, and the graph
has an edge per dependency: ``wr`` (the writer of a version precedes its
readers), ``ww`` (a version's writer precedes the next version's writer),
and ``rw`` (a reader of a version precedes the writer of the *next*
version — the anti-dependency).  Committed transactions are
conflict-serializable iff this graph is acyclic;
:func:`check_serializability` returns the verdict plus a witness cycle
for post-mortems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cc.base import AbortReason, ConcurrencyControl
from repro.sim.engine import Event

#: one read operation: (granule, time it took effect, record sequence,
#: version read — the writer's txn_id, None for the initial version)
ReadOp = Tuple[int, float, int, Optional[int]]

#: the weak-isolation anomaly kinds the classifier can name; fixed order
#: so diagnostic metric schemas (``anomalies_<kind>``) are stable
ANOMALY_KINDS = ("long_fork", "lost_update", "non_repeatable_read",
                 "write_skew")

#: the isolation levels a scheme may declare (see ``repro.cc.registry``)
ISOLATION_LEVELS = ("serializable", "snapshot_isolation")

#: anomaly kinds each level admits; anything else is a violation
_ALLOWED_AT = {
    "serializable": frozenset(),
    "snapshot_isolation": frozenset({"write_skew"}),
}

#: sentinel for "resolve the version from the recorder's install log"
_CURRENT = object()


@dataclass(frozen=True)
class CommittedExecution:
    """The committed execution of one transaction, as recorded."""

    txn_id: int
    #: reads in the order they took effect (granule, time, seq, version)
    reads: Tuple[ReadOp, ...]
    #: granules written; they take effect at (commit_time, commit_seq)
    writes: Tuple[int, ...]
    commit_time: float
    commit_seq: int


@dataclass
class HistoryRecorder:
    """Accumulates the committed history of one simulation run."""

    committed: List[CommittedExecution] = field(default_factory=list)
    #: executions that were begun (committed or not) — exposes coverage
    executions: int = 0
    _seq: int = 0
    _reads: Dict[int, List[ReadOp]] = field(default_factory=dict)
    _writes: Dict[int, Set[int]] = field(default_factory=dict)
    #: granule -> txn_id of the latest committed writer (the install log
    #: head, used to resolve the version of single-version reads)
    _current_version: Dict[int, int] = field(default_factory=dict)

    def next_seq(self) -> int:
        """A fresh, strictly increasing record sequence number."""
        self._seq += 1
        return self._seq

    def start_execution(self, txn_id: int) -> None:
        """A (re-)execution begins: discard the previous attempt's ops."""
        self.executions += 1
        self._reads[txn_id] = []
        self._writes[txn_id] = set()

    def record_read(self, txn_id: int, item: int, time: float,
                    version: object = _CURRENT) -> None:
        """A read of ``item`` took effect (immediately or at lock grant).

        ``version`` is the writer txn_id of the version returned.  Left at
        the default, the recorder resolves it as the latest committed
        version of ``item`` so far — correct for every single-version
        scheme, because the engine processes the writer's commit before
        any read that could observe it.  Multiversion schemes pass the
        version they actually served.
        """
        ops = self._reads.get(txn_id)
        if ops is not None:
            if version is _CURRENT:
                version = self._current_version.get(item)
            ops.append((item, time, self.next_seq(), version))

    def record_write_intent(self, txn_id: int, item: int) -> None:
        """The execution will write ``item`` (effective at its commit)."""
        writes = self._writes.get(txn_id)
        if writes is not None:
            writes.add(item)

    def record_commit(self, txn_id: int, time: float) -> None:
        """The current execution committed: freeze it into the history."""
        reads = self._reads.pop(txn_id, [])
        writes = self._writes.pop(txn_id, set())
        for item in writes:
            self._current_version[item] = txn_id
        self.committed.append(CommittedExecution(
            txn_id=txn_id,
            reads=tuple(reads),
            writes=tuple(sorted(writes)),
            commit_time=time,
            commit_seq=self.next_seq(),
        ))

    def record_abort(self, txn_id: int) -> None:
        """The current execution aborted: it never happened."""
        self._reads.pop(txn_id, None)
        self._writes.pop(txn_id, None)


class RecordingConcurrencyControl(ConcurrencyControl):
    """Wrap a scheme and record the history it admits (opt-in observation).

    Pure observation through the :class:`~repro.cc.base.ConcurrencyControl`
    surface: every call is delegated unchanged, so the wrapped scheme makes
    exactly the decisions it would make unobserved.  (The grant callbacks
    the wrapper registers run at the same simulated instant as the grant
    and do not reorder any event.)
    """

    def __init__(self, inner: ConcurrencyControl, recorder: HistoryRecorder):
        self.inner = inner
        self.recorder = recorder
        self.name = f"recorded({inner.name})"

    # ------------------------------------------------------------------
    def begin(self, txn) -> None:
        """Open a fresh recording for this execution, then delegate."""
        self.recorder.start_execution(txn.txn_id)
        self.inner.begin(txn)

    def access(self, txn, item: int, is_write: bool) -> Optional[Event]:
        """Delegate the access and record it once it takes effect."""
        # delegate first: blocking schemes may raise TransactionAborted
        # (wait-die / a delivered wound), in which case nothing happened
        grant = self.inner.access(txn, item, is_write)
        recorder = self.recorder
        txn_id = txn.txn_id
        if is_write:
            recorder.record_write_intent(txn_id, item)
        if grant is None:
            if self.inner.multiversion:
                # a snapshot read may return an *old* version; the scheme
                # is the only party that knows which one it served
                recorder.record_read(
                    txn_id, item, self.inner.sim.now,
                    self.inner.observed_version(txn, item))
            else:
                recorder.record_read(txn_id, item, self.inner.sim.now)
            return None

        def on_grant(event: Event) -> None:
            if event.ok:  # a failed grant is an abort, not a read
                recorder.record_read(txn_id, item, event.sim.now)

        grant.add_callback(on_grant)
        return grant

    def try_commit(self, txn) -> bool:
        """Delegate certification unchanged."""
        return self.inner.try_commit(txn)

    def finish(self, txn) -> None:
        """Delegate, then freeze the execution into the committed history."""
        self.inner.finish(txn)
        self.recorder.record_commit(txn.txn_id, self.inner.sim.now)

    def abort(self, txn, reason: AbortReason) -> None:
        """Delegate, then drop the aborted execution's records."""
        self.inner.abort(txn, reason)
        self.recorder.record_abort(txn.txn_id)

    def wait_depth(self) -> int:
        """The wrapped scheme's blocked-transaction count, unchanged."""
        return self.inner.wait_depth()


# ----------------------------------------------------------------------
# the direct serialization graph and its acyclicity check
# ----------------------------------------------------------------------
def _commit_order(history: Sequence[CommittedExecution]
                  ) -> List[CommittedExecution]:
    """The committed executions sorted by (commit_time, commit_seq)."""
    return sorted(history, key=lambda e: (e.commit_time, e.commit_seq))


def _version_chains(history: Sequence[CommittedExecution]
                    ) -> Dict[int, List[int]]:
    """Per granule: the committed writers' txn_ids, in commit order.

    The chain *is* the version order of the granule; the initial
    (never-written) version ``None`` precedes every chain implicitly.
    """
    chains: Dict[int, List[int]] = {}
    for execution in _commit_order(history):
        for item in execution.writes:
            chains.setdefault(item, []).append(execution.txn_id)
    return chains


def _successors(chains: Dict[int, List[int]]
                ) -> Dict[Tuple[int, Optional[int]], int]:
    """Map (granule, version) to the writer of the *next* version."""
    successor: Dict[Tuple[int, Optional[int]], int] = {}
    for item, chain in chains.items():
        previous: Optional[int] = None
        for writer in chain:
            successor[(item, previous)] = writer
            previous = writer
    return successor


def conflict_graph(history: Sequence[CommittedExecution]) -> Dict[int, Set[int]]:
    """The direct serialization graph of a committed history (adjacency).

    Nodes are txn_ids; an edge ``a -> b`` means ``a`` must precede ``b``
    in any equivalent serial order, for one of Adya's three reasons:
    ``a`` wrote a version ``b`` read (wr), ``a`` wrote the version
    preceding ``b``'s on some granule (ww), or ``a`` read the version
    that ``b``'s write superseded (rw anti-dependency).
    """
    graph: Dict[int, Set[int]] = {e.txn_id: set() for e in history}
    chains = _version_chains(history)
    successor = _successors(chains)

    # ww: consecutive versions of each granule
    for chain in chains.values():
        for earlier, later in zip(chain, chain[1:]):
            if earlier != later:
                graph[earlier].add(later)

    for execution in history:
        reader = execution.txn_id
        for item, _time, _seq, version in execution.reads:
            if version == reader:
                continue  # read-your-own-write orders nothing
            # wr: the version's writer precedes its reader
            if version is not None and version in graph:
                graph[version].add(reader)
            # rw: the reader precedes the writer of the next version
            overwriter = successor.get((item, version))
            if overwriter is not None and overwriter != reader:
                graph[reader].add(overwriter)
    return graph


@dataclass(frozen=True)
class SerializabilityVerdict:
    """Outcome of a serialization-graph check over a committed history."""

    serializable: bool
    #: a witness cycle of txn_ids (first repeated at the end) if not
    cycle: Tuple[int, ...] = ()
    transactions: int = 0
    edges: int = 0

    def __bool__(self) -> bool:
        """Truthiness is the verdict itself."""
        return self.serializable


def check_serializability(
        history: Sequence[CommittedExecution]) -> SerializabilityVerdict:
    """Decide conflict-serializability of a committed history.

    Returns a :class:`SerializabilityVerdict`; when the serialization
    graph has a cycle the verdict carries one witness cycle (txn_ids, the
    first node repeated at the end) so a failing scheme can be debugged
    from the test output.
    """
    graph = conflict_graph(history)
    edge_count = sum(len(successors) for successors in graph.values())

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in graph}
    parent: Dict[int, Optional[int]] = {}

    def cycle_from(start: int, end: int) -> Tuple[int, ...]:
        path = [end]
        node = end
        while node != start:
            node = parent[node]
            path.append(node)
        path.reverse()
        return tuple(path) + (path[0],)

    for root in graph:
        if colour[root] != WHITE:
            continue
        parent[root] = None
        stack: List[Tuple[int, Iterator[int]]] = [
            (root, iter(sorted(graph[root])))]
        colour[root] = GREY
        while stack:
            node, successors = stack[-1]
            successor = next(successors, None)
            if successor is None:
                colour[node] = BLACK
                stack.pop()
                continue
            if colour[successor] == GREY:
                return SerializabilityVerdict(
                    serializable=False,
                    cycle=cycle_from(successor, node),
                    transactions=len(graph),
                    edges=edge_count,
                )
            if colour[successor] == WHITE:
                parent[successor] = node
                colour[successor] = GREY
                stack.append((successor, iter(sorted(graph[successor]))))
    return SerializabilityVerdict(
        serializable=True, transactions=len(graph), edges=edge_count)


# ----------------------------------------------------------------------
# anomaly classification and the isolation-level tester
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Anomaly:
    """One named weak-isolation anomaly found in a committed history."""

    #: one of :data:`ANOMALY_KINDS` (or ``"serialization_cycle"`` for a
    #: non-serializable history none of the named patterns explains)
    kind: str
    #: the committed transactions exhibiting the anomaly
    transactions: Tuple[int, ...]
    #: the granules involved
    items: Tuple[int, ...] = ()
    detail: str = ""


def classify_anomalies(
        history: Sequence[CommittedExecution]) -> Tuple[Anomaly, ...]:
    """Name the weak-isolation anomalies a committed history exhibits.

    Four patterns are detected, each defined over the per-granule version
    order (the writers' commit order) and each transaction's recorded
    read versions:

    * **non_repeatable_read** — one transaction read two *different*
      versions of the same granule: its reads cannot come from any single
      snapshot of that granule.
    * **long_fork** — a transaction's reads are snapshot-inconsistent
      *across* granules: no point of the global commit order shows all the
      versions it read simultaneously (the classic long-fork readers each
      see one of two concurrent writes but not the other).
    * **lost_update** — a transaction overwrote a granule it had read at
      a version *older* than its write's predecessor: the intervening
      committed update was silently discarded.
    * **write_skew** — two transactions each read what the other then
      overwrote (a pure anti-dependency 2-cycle); both committed, which a
      serializable scheme would forbid but snapshot isolation admits.

    Reads of a transaction's own writes are ignored throughout: they
    constrain nothing.  Anomalies are reported deterministically (sorted
    by kind, then transactions).
    """
    order = _commit_order(history)
    position = {e.txn_id: index + 1 for index, e in enumerate(order)}
    successor = _successors(_version_chains(history))
    #: (granule, writer) -> the writer of the version it superseded
    predecessor = {(item, writer): previous
                   for (item, previous), writer in successor.items()}

    def version_position(item: int, version: Optional[int]) -> Optional[int]:
        """Commit position at which ``version`` of ``item`` became visible."""
        if version is None:
            return 0
        return position.get(version)

    anomalies: List[Anomaly] = []

    for execution in history:
        reader = execution.txn_id
        #: granule -> distinct versions read (ignoring own writes)
        read_versions: Dict[int, List[Optional[int]]] = {}
        for item, _time, _seq, version in execution.reads:
            if version == reader:
                continue
            seen = read_versions.setdefault(item, [])
            if version not in seen:
                seen.append(version)

        # -- non-repeatable reads: two versions of one granule ----------
        unrepeatable = {item for item, seen in read_versions.items()
                        if len(seen) > 1}
        for item in sorted(unrepeatable):
            anomalies.append(Anomaly(
                kind="non_repeatable_read",
                transactions=(reader,),
                items=(item,),
                detail=f"txn {reader} read versions "
                       f"{read_versions[item]} of granule {item}",
            ))

        # -- long fork: per-granule snapshot windows with empty overlap --
        # each read of version v on granule g is visible exactly in the
        # commit-position window [pos(v), pos(successor of v) - 1]
        windows: Dict[int, Tuple[float, float]] = {}
        for item, seen in read_versions.items():
            if item in unrepeatable:
                continue  # already reported; its window is empty by itself
            (version,) = seen
            lower = version_position(item, version)
            if lower is None:
                continue  # version unknown to this history; no constraint
            overwriter = successor.get((item, version))
            if overwriter is None or overwriter == reader:
                upper = math.inf
            else:
                upper = position[overwriter] - 1
            windows[item] = (float(lower), float(upper))
        if windows:
            lower_item = max(windows, key=lambda i: (windows[i][0], i))
            upper_item = min(windows, key=lambda i: (windows[i][1], -i))
            lower, upper = windows[lower_item][0], windows[upper_item][1]
            if lower > upper:
                anomalies.append(Anomaly(
                    kind="long_fork",
                    transactions=(reader,),
                    items=tuple(sorted((lower_item, upper_item))),
                    detail=f"txn {reader}'s reads of granules {lower_item} "
                           f"and {upper_item} fit no single snapshot",
                ))

        # -- lost update: wrote over a version it never read ------------
        for item in execution.writes:
            seen = read_versions.get(item)
            if not seen:
                continue  # blind write: nothing was read, nothing lost
            overwritten = predecessor[(item, reader)]
            if all(version != overwritten for version in seen):
                involved = (reader,) if overwritten is None else tuple(
                    sorted((reader, overwritten)))
                anomalies.append(Anomaly(
                    kind="lost_update",
                    transactions=involved,
                    items=(item,),
                    detail=f"txn {reader} overwrote granule {item} having "
                           f"read version {seen[0]}, not its predecessor "
                           f"{overwritten}",
                ))

    # -- write skew: mutual anti-dependencies between two transactions --
    rw_items: Dict[Tuple[int, int], Set[int]] = {}
    for execution in history:
        reader = execution.txn_id
        for item, _time, _seq, version in execution.reads:
            if version == reader:
                continue
            overwriter = successor.get((item, version))
            if overwriter is not None and overwriter != reader:
                rw_items.setdefault((reader, overwriter), set()).add(item)
    for (a, b), items in sorted(rw_items.items()):
        if a < b and (b, a) in rw_items:
            anomalies.append(Anomaly(
                kind="write_skew",
                transactions=(a, b),
                items=tuple(sorted(items | rw_items[(b, a)])),
                detail=f"txns {a} and {b} each read what the other "
                       f"overwrote, yet both committed",
            ))

    anomalies.sort(key=lambda anomaly: (anomaly.kind, anomaly.transactions,
                                        anomaly.items))
    return tuple(anomalies)


def anomaly_counts(history: Sequence[CommittedExecution]) -> Dict[str, int]:
    """Occurrences of every anomaly kind (all kinds present, stable schema)."""
    counts = {kind: 0 for kind in ANOMALY_KINDS}
    for anomaly in classify_anomalies(history):
        if anomaly.kind in counts:
            counts[anomaly.kind] += 1
    return counts


@dataclass(frozen=True)
class IsolationVerdict:
    """Outcome of checking a committed history against a declared level."""

    #: the level the history was checked against (:data:`ISOLATION_LEVELS`)
    level: str
    #: True iff the history exhibits nothing the level forbids
    ok: bool
    #: every anomaly the classifier found, allowed or not
    anomalies: Tuple[Anomaly, ...] = ()
    #: the anomalies the declared level forbids — the reason ``ok`` is False
    violations: Tuple[Anomaly, ...] = ()
    #: whether the history is (conflict-)serializable outright
    serializable: bool = True
    transactions: int = 0

    def __bool__(self) -> bool:
        """Truthiness is the verdict itself."""
        return self.ok


def check_isolation(history: Sequence[CommittedExecution],
                    level: str) -> IsolationVerdict:
    """Check a committed history against a *declared* isolation level.

    ``level="serializable"`` demands an acyclic serialization graph — any
    anomaly, named or not, is a violation.  ``level="snapshot_isolation"``
    admits write skew (the one anomaly Berenson et al. showed SI allows)
    but rejects lost updates, long forks and non-repeatable reads, all of
    which first-committer-wins snapshot reads provably prevent.  The
    verdict carries every classified anomaly either way, so a test can
    assert not only that a scheme is *good enough* for its level but that
    the oracle saw exactly the anomalies the level predicts.
    """
    if level not in _ALLOWED_AT:
        raise ValueError(
            f"unknown isolation level {level!r}; "
            f"expected one of {ISOLATION_LEVELS}")
    anomalies = classify_anomalies(history)
    serialization = check_serializability(history)
    allowed = _ALLOWED_AT[level]
    violations = tuple(a for a in anomalies if a.kind not in allowed)
    if level == "serializable" and not serialization.serializable \
            and not violations:
        # non-serializable, but none of the named patterns explains it:
        # still a violation of the declared level — witness the cycle
        violations = (Anomaly(
            kind="serialization_cycle",
            transactions=serialization.cycle,
            detail="serialization graph is cyclic",
        ),)
    ok = not violations
    if level == "serializable":
        ok = ok and serialization.serializable
    return IsolationVerdict(
        level=level,
        ok=ok,
        anomalies=anomalies,
        violations=violations,
        serializable=serialization.serializable,
        transactions=serialization.transactions,
    )
