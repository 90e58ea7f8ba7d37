"""Concurrency control schemes.

The paper's simulation uses an optimistic *timestamp certification* scheme
(Bernstein, Hadzilacos & Goodman 1987) because, for a non-blocking protocol,
data contention is resolved by additional resource contention (restarts) and
thrashing emerges naturally once the physical resources saturate.

The full family spans both classes discussed in Section 1 (and by the
Tay/Iyer rules of thumb): the optimistic side adds *forward* validation
(:mod:`repro.cc.occ_forward`), and the blocking side is the strict-2PL
family of :mod:`repro.cc.two_phase_locking` — shared lock-table machinery
with three conflict resolutions (waits-for deadlock detection, wound-wait,
wait-die).

The multiversion family (:mod:`repro.cc.mvcc`) adds the scheme production
engines actually run: snapshot isolation — reads served from a begin-time
snapshot without ever blocking, writes validated first-committer-wins.

The scheme table (:data:`repro.cc.registry.SCHEMES`) makes the scheme a
sweepable dimension of the experiment grid: a picklable :class:`CCSpec`
names a kind (``timestamp_cert``, ``occ_forward``, ``two_phase_locking``,
``wound_wait``, ``wait_die``, ``snapshot_isolation``) plus its options, and
the runner builds the scheme inside the worker that runs the cell — exactly
like controllers.  Each kind carries a *family* (:func:`cc_family`) that
selects its analytic reference (Tay's blocking model vs the OCC fixed
point) and a declared *isolation level* (:func:`cc_level`).

:mod:`repro.cc.history` provides the opt-in isolation oracle: a recorder
that observes any scheme through the ``ConcurrencyControl`` surface plus
history checkers — serialization-graph acyclicity
(:func:`check_serializability`), a weak-isolation anomaly classifier
(:func:`classify_anomalies`), and the declared-level tester
(:func:`check_isolation`) — the certification harness every scheme of the
table must pass at its own level.
"""

from repro.cc.base import (
    AbortReason,
    ConcurrencyControl,
    TransactionAborted,
)
from repro.cc.history import (
    ANOMALY_KINDS,
    ISOLATION_LEVELS,
    Anomaly,
    CommittedExecution,
    HistoryRecorder,
    IsolationVerdict,
    RecordingConcurrencyControl,
    SerializabilityVerdict,
    anomaly_counts,
    check_isolation,
    check_serializability,
    classify_anomalies,
    conflict_graph,
)
from repro.cc.mvcc import SnapshotIsolation
from repro.cc.occ_forward import OccForwardValidation
from repro.cc.registry import (
    CCSpec,
    cc_family,
    cc_kinds,
    cc_level,
    declared_level,
    resolve_cc,
)
from repro.cc.timestamp_cert import TimestampCertification
from repro.cc.two_phase_locking import (
    LockingScheme,
    LockMode,
    TwoPhaseLocking,
    WaitDieLocking,
    WoundWaitLocking,
)

__all__ = [
    "AbortReason",
    "ConcurrencyControl",
    "TransactionAborted",
    "TimestampCertification",
    "OccForwardValidation",
    "LockingScheme",
    "TwoPhaseLocking",
    "WoundWaitLocking",
    "WaitDieLocking",
    "LockMode",
    "SnapshotIsolation",
    "CCSpec",
    "cc_family",
    "cc_kinds",
    "cc_level",
    "declared_level",
    "resolve_cc",
    "HistoryRecorder",
    "RecordingConcurrencyControl",
    "CommittedExecution",
    "SerializabilityVerdict",
    "check_serializability",
    "conflict_graph",
    "ANOMALY_KINDS",
    "ISOLATION_LEVELS",
    "Anomaly",
    "IsolationVerdict",
    "anomaly_counts",
    "check_isolation",
    "classify_anomalies",
]
