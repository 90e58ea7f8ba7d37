"""The concurrency control schemes as picklable sweep data.

The paper claims its load-control results hold across concurrency control
classes (blocking and non-blocking, Section 1); to *test* that claim the
scheme must be a first-class dimension of the experiment grid.  Like
controllers (:class:`~repro.runner.specs.ControllerSpec`), stateful CC
objects cannot travel to worker processes — a :class:`CCSpec` names a
scheme of the :data:`SCHEMES` table plus its constructor options, and the
scheme instance is built inside the worker that runs the cell, bound to
that cell's simulator.

The table holds six schemes, spanning the two *families* the paper's
Section 1 distinguishes plus the multiversion family production engines
actually run:

* ``timestamp_cert`` (optimistic) — the paper's backward-oriented timestamp
  certification (:class:`~repro.cc.timestamp_cert.TimestampCertification`),
  the default of every run that does not name a scheme;
* ``occ_forward`` (optimistic) — optimistic with *forward* validation
  against the read sets of running transactions
  (:class:`~repro.cc.occ_forward.OccForwardValidation`);
* ``two_phase_locking`` (locking) — strict 2PL with waits-for deadlock
  detection (:class:`~repro.cc.two_phase_locking.TwoPhaseLocking`);
  accepts ``victim_policy`` (``youngest`` / ``oldest`` / ``fewest_locks``);
* ``wound_wait`` (locking) — deadlock-avoiding timestamp-priority 2PL:
  older requesters wound younger lock owners
  (:class:`~repro.cc.two_phase_locking.WoundWaitLocking`);
* ``wait_die`` (locking) — deadlock-avoiding timestamp-priority 2PL:
  younger requesters abort themselves instead of waiting
  (:class:`~repro.cc.two_phase_locking.WaitDieLocking`);
* ``snapshot_isolation`` (multiversion) — versioned store, snapshot reads
  that never block, first-committer-wins write validation
  (:class:`~repro.cc.mvcc.SnapshotIsolation`).

The family (:func:`cc_family`) is what the analytic layer keys on: locking
schemes are referenced against Tay's mean-value blocking model, optimistic
and multiversion schemes against the OCC fixed point (see
:func:`repro.analytic.references.reference_model_for`).

Every kind also declares an **isolation level** (:func:`cc_level`): the
strongest guarantee the isolation oracle
(:func:`repro.cc.history.check_isolation`) certifies its histories
against.  The five single-version schemes declare ``"serializable"``;
``snapshot_isolation`` declares ``"snapshot_isolation"`` — write skew is
admitted, anything weaker is a bug.

Adding a scheme is one row of :data:`SCHEMES`: its class (constructed as
``cls(sim, **options)``), its family and its isolation level.  The table is
fixed by the code, so a fingerprint that names a kind also fixes what that
kind runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Type

from repro.cc.base import ConcurrencyControl
from repro.cc.mvcc import SnapshotIsolation
from repro.cc.occ_forward import OccForwardValidation
from repro.cc.timestamp_cert import TimestampCertification
from repro.cc.two_phase_locking import (
    TwoPhaseLocking,
    WaitDieLocking,
    WoundWaitLocking,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Simulator

#: kind -> (scheme class, family, isolation level).  ``family`` classifies
#: the scheme for the analytic layer: ``"locking"`` schemes are compared
#: against Tay's blocking model, ``"optimistic"`` and ``"multiversion"``
#: ones against the OCC fixed point.  ``level`` is the isolation level the
#: scheme guarantees (one of :data:`repro.cc.history.ISOLATION_LEVELS`); the
#: isolation oracle certifies every scheme's histories against it.
SCHEMES: Dict[str, Tuple[Type[ConcurrencyControl], str, str]] = {
    "timestamp_cert": (TimestampCertification, "optimistic", "serializable"),
    "occ_forward": (OccForwardValidation, "optimistic", "serializable"),
    "two_phase_locking": (TwoPhaseLocking, "locking", "serializable"),
    "wound_wait": (WoundWaitLocking, "locking", "serializable"),
    "wait_die": (WaitDieLocking, "locking", "serializable"),
    "snapshot_isolation": (SnapshotIsolation, "multiversion", "snapshot_isolation"),
}


def cc_kinds() -> Tuple[str, ...]:
    """All concurrency control kinds."""
    return tuple(sorted(SCHEMES))


def _scheme(kind: str) -> Tuple[Type[ConcurrencyControl], str, str]:
    row = SCHEMES.get(kind)
    if row is None:
        raise KeyError(
            f"unknown cc kind {kind!r}; available: {', '.join(cc_kinds())}")
    return row


def cc_family(kind: str) -> str:
    """The family (``"locking"`` / ``"optimistic"`` / ``"multiversion"``)."""
    return _scheme(kind)[1]


def cc_level(kind: str) -> str:
    """The isolation level a kind declares."""
    return _scheme(kind)[2]


def declared_level(cc: Optional["CCSpec"]) -> str:
    """The isolation level a run's ``cc`` field declares.

    ``None`` is the system default, timestamp certification, which is
    serializable.
    """
    return "serializable" if cc is None else cc.level


@dataclass(frozen=True)
class CCSpec:
    """A picklable description of a CC scheme: a :data:`SCHEMES` kind + options.

    ``options`` is stored as a sorted tuple of ``(name, value)`` pairs so
    specs are hashable and two specs with the same options compare equal
    regardless of keyword order — the same contract as
    :class:`~repro.runner.specs.ControllerSpec`.  Use :meth:`make` to build
    one from keyword arguments.
    """

    kind: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **options) -> "CCSpec":
        """Build a spec from keyword options."""
        return cls(kind=kind, options=tuple(sorted(options.items())))

    @property
    def level(self) -> str:
        """The isolation level the named kind declares."""
        return cc_level(self.kind)

    def build(self, sim: "Simulator") -> ConcurrencyControl:
        """Construct a fresh scheme instance bound to one run's simulator."""
        return _scheme(self.kind)[0](sim, **dict(self.options))


def resolve_cc(cc: Optional[CCSpec], sim: "Simulator") -> Optional[ConcurrencyControl]:
    """Build the scheme instance of one run (``None`` = the system default).

    ``cc`` is ``None`` or a :class:`CCSpec`.  Anything else raises
    ``TypeError``, a ready scheme instance included: a scheme carries
    per-run state (lock tables, committed timestamps), so sharing one
    object across cells or replicates would corrupt the runs.
    """
    if cc is None:
        return None
    if not isinstance(cc, CCSpec):
        raise TypeError(
            f"cc must be None or a CCSpec, got {type(cc).__name__}: "
            "schemes hold per-run state and must be built fresh inside each run"
        )
    return cc.build(sim)
