"""The concurrency control registry: schemes as picklable sweep data.

The paper claims its load-control results hold across concurrency control
classes (blocking and non-blocking, Section 1); to *test* that claim the
scheme must be a first-class dimension of the experiment grid.  Like
controllers (:class:`~repro.runner.specs.ControllerSpec`), stateful CC
objects cannot travel to worker processes — a :class:`CCSpec` names a
scheme from this registry plus its constructor options, and the scheme
instance is built inside the worker that runs the cell, bound to that
cell's simulator.

Six schemes are registered out of the box, spanning the two *families* the
paper's Section 1 distinguishes plus the multiversion family production
engines actually run:

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

``register_cc`` extends the registry the same way ``register_controller``
and ``register_scenario`` do; pass ``family="locking"`` for blocking
schemes or ``family="multiversion"`` for snapshot schemes (the default,
``"optimistic"``, keeps the OCC reference), and ``level=`` for schemes
that guarantee less than serializability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.cc.base import ConcurrencyControl
from repro.cc.history import ISOLATION_LEVELS
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

#: a CC builder receives the cell's simulator plus the spec's options
CCBuilder = Callable[..., ConcurrencyControl]

#: the scheme families the analytic references distinguish
CC_FAMILIES = ("optimistic", "locking", "multiversion")

_CC_BUILDERS: Dict[str, CCBuilder] = {}
_CC_FAMILIES: Dict[str, str] = {}
_CC_LEVELS: Dict[str, str] = {}


def register_cc(kind: str, family: str = "optimistic",
                level: str = "serializable") -> Callable[[CCBuilder], CCBuilder]:
    """Register a concurrency control builder under ``kind`` (decorator).

    ``family`` classifies the scheme for the analytic layer: ``"locking"``
    schemes are compared against Tay's blocking model, ``"optimistic"``
    and ``"multiversion"`` ones against the OCC fixed point.  ``level``
    declares the isolation level the scheme guarantees (one of
    :data:`repro.cc.history.ISOLATION_LEVELS`); the isolation oracle
    certifies every registered scheme's histories against it.
    """
    if family not in CC_FAMILIES:
        raise ValueError(
            f"unknown cc family {family!r}; expected one of {CC_FAMILIES}")
    if level not in ISOLATION_LEVELS:
        raise ValueError(
            f"unknown isolation level {level!r}; "
            f"expected one of {ISOLATION_LEVELS}")

    def decorator(builder: CCBuilder) -> CCBuilder:
        if kind in _CC_BUILDERS:
            raise ValueError(f"cc kind {kind!r} is already registered")
        _CC_BUILDERS[kind] = builder
        _CC_FAMILIES[kind] = family
        _CC_LEVELS[kind] = level
        return builder

    return decorator


def cc_kinds() -> Tuple[str, ...]:
    """All registered concurrency control kinds."""
    return tuple(sorted(_CC_BUILDERS))


def cc_family(kind: str) -> str:
    """The family (``"locking"`` / ``"optimistic"`` / ``"multiversion"``)."""
    family = _CC_FAMILIES.get(kind)
    if family is None:
        raise KeyError(
            f"unknown cc kind {kind!r}; available: {', '.join(cc_kinds())}")
    return family


def cc_level(kind: str) -> str:
    """The isolation level a registered kind declares."""
    level = _CC_LEVELS.get(kind)
    if level is None:
        raise KeyError(
            f"unknown cc kind {kind!r}; available: {', '.join(cc_kinds())}")
    return level


def declared_level(cc: Optional["CCSpec"]) -> str:
    """The isolation level a run's ``cc`` field declares.

    ``None`` is the system default, timestamp certification, which is
    serializable.
    """
    return "serializable" if cc is None else cc.level


@dataclass(frozen=True)
class CCSpec:
    """A picklable description of a CC scheme: registry kind + options.

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
        """The isolation level the named kind declares (registry metadata)."""
        return cc_level(self.kind)

    def build(self, sim: "Simulator") -> ConcurrencyControl:
        """Construct a fresh scheme instance bound to one run's simulator."""
        builder = _CC_BUILDERS.get(self.kind)
        if builder is None:
            raise KeyError(
                f"unknown cc kind {self.kind!r}; "
                f"available: {', '.join(cc_kinds())}"
            )
        return builder(sim, **dict(self.options))


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


# ----------------------------------------------------------------------
# built-in schemes
# ----------------------------------------------------------------------
@register_cc("timestamp_cert", family="optimistic")
def _build_timestamp_cert(sim: "Simulator", **options) -> ConcurrencyControl:
    return TimestampCertification(sim, **options)


@register_cc("occ_forward", family="optimistic")
def _build_occ_forward(sim: "Simulator", **options) -> ConcurrencyControl:
    return OccForwardValidation(sim, **options)


@register_cc("two_phase_locking", family="locking")
def _build_two_phase_locking(sim: "Simulator", **options) -> ConcurrencyControl:
    return TwoPhaseLocking(sim, **options)


@register_cc("wound_wait", family="locking")
def _build_wound_wait(sim: "Simulator", **options) -> ConcurrencyControl:
    return WoundWaitLocking(sim, **options)


@register_cc("wait_die", family="locking")
def _build_wait_die(sim: "Simulator", **options) -> ConcurrencyControl:
    return WaitDieLocking(sim, **options)


@register_cc("snapshot_isolation", family="multiversion",
             level="snapshot_isolation")
def _build_snapshot_isolation(sim: "Simulator", **options) -> ConcurrencyControl:
    return SnapshotIsolation(sim, **options)
