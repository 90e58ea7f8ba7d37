"""Typed adversary specs: hostile workload patterns as plain picklable data.

An :class:`AdversarySpec` is to the fuzzer what a
:class:`~repro.runner.specs.RunSpec` is to the runner: a frozen, picklable,
JSON-round-trippable description.  Each subclass captures one *attack
pattern* against the paper's adaptive load controllers — a transaction-size
spike, correlated hot-key traffic, an arrival burst, a hostile class mix, a
displacement storm — and :meth:`AdversarySpec.lower` compiles it down to an
ordinary ``RunSpec`` using the existing schedule / mixed-class machinery,
so a candidate runs through exactly the code paths the scenario grid uses.

Every adversary runs *with* an adaptive controller (that is the point: the
fuzzer hunts workloads the controller cannot rescue), and every spec has a
content :meth:`~AdversarySpec.fingerprint` that doubles as its cell id, so
two campaigns that generate the same spec archive the same counterexample
file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Tuple

from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.experiments.config import (
    ExperimentScale,
    contention_bound_params,
    default_system_params,
)
from repro.runner.specs import (
    KIND_STATIONARY,
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
)
from repro.tp.workload import JumpSchedule, TransactionClassSpec

#: adaptive controllers an adversary may be pitted against (the paper's two
#: load-control policies, Section 5/6)
ADAPTIVE_CONTROLLERS = ("incremental_steps", "parabola")


def adversary_kinds() -> Tuple[str, ...]:
    """All adversary kinds of :data:`ADVERSARIES`, sorted."""
    return tuple(sorted(ADVERSARIES))


@dataclass(frozen=True)
class AdversarySpec:
    """Base class: one hostile workload pattern as frozen plain data.

    Subclasses define scalar fields only, set a class-level ``kind`` tag and
    implement :meth:`lower`.  The shared machinery provides JSON round-trip
    (:meth:`to_jsonable` / :func:`adversary_from_jsonable`) and a stable
    content fingerprint.
    """

    kind = "abstract"

    #: adaptive controller the adversary attacks
    controller: str = "incremental_steps"
    #: root seed of the lowered run's random streams
    seed: int = 1

    def __post_init__(self) -> None:
        if self.controller not in ADAPTIVE_CONTROLLERS:
            raise ValueError(
                f"controller must be one of {ADAPTIVE_CONTROLLERS}, "
                f"got {self.controller!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        """Encode as plain JSON data (inverse of :func:`adversary_from_jsonable`)."""
        data = {"kind": self.kind}
        data.update(asdict(self))
        return data

    def fingerprint(self) -> str:
        """Stable short content hash; identical specs hash identically."""
        canonical = json.dumps(self.to_jsonable(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=6).hexdigest()

    def cell_id(self) -> str:
        """The lowered cell's id: ``fuzz/<kind>/<fingerprint>``."""
        return f"fuzz/{self.kind}/{self.fingerprint()}"

    def _controller_spec(self) -> ControllerSpec:
        return ControllerSpec.make(self.controller)

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """Compile the adversary into an ordinary runnable cell."""
        raise NotImplementedError


def adversary_from_jsonable(data: dict) -> AdversarySpec:
    """Reconstruct the adversary encoded by :meth:`AdversarySpec.to_jsonable`."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = ADVERSARIES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown adversary kind {kind!r}; available: {', '.join(adversary_kinds())}"
        )
    names = {field.name for field in fields(cls)}
    unexpected = sorted(set(data) - names)
    if unexpected:
        raise ValueError(f"unexpected {kind!r} fields: {unexpected}")
    return cls(**data)


# ----------------------------------------------------------------------
# attack patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizeSpikeAdversary(AdversarySpec):
    """Transaction-size spike: ``k`` jumps mid-run (a hostile Figure 13).

    Lowered to a tracking run on the contention-bound configuration (whose
    optimum *moves* with ``k``) with a :class:`~repro.tp.workload.JumpSchedule`
    on the accesses parameter: the optimum collapses at the jump and the
    controller must walk its admission limit down before thrashing erases
    the post-jump throughput.
    """

    kind = "size_spike"

    #: offered load (terminals)
    n_terminals: int = 300
    #: accesses per transaction before the spike
    before_k: int = 8
    #: accesses per transaction after the spike (the hostile part)
    after_k: int = 32
    #: position of the jump as a fraction of the tracking horizon
    jump_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.jump_fraction < 1.0:
            raise ValueError(
                f"jump_fraction must be in (0, 1), got {self.jump_fraction}"
            )
        if self.before_k < 1 or self.after_k < 1:
            raise ValueError("before_k and after_k must be >= 1")

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """A tracking cell whose ``k`` schedule jumps at ``jump_fraction``."""
        params = contention_bound_params(seed=self.seed).with_changes(
            n_terminals=self.n_terminals)
        schedule = JumpSchedule(
            before=self.before_k,
            after=min(self.after_k, params.workload.db_size),
            jump_time=self.jump_fraction * scale.tracking_horizon,
        )
        return RunSpec(
            kind=KIND_TRACKING,
            cell_id=self.cell_id(),
            params=params,
            scale=scale,
            controller=self._controller_spec(),
            scenario=("accesses", schedule),
            label=self.kind,
        )


@dataclass(frozen=True)
class HotKeyAdversary(AdversarySpec):
    """Correlated hot-key traffic: every transaction hits a small hot set.

    The access model is uniform over the database, so correlated traffic
    concentrated on ``hot_set_size`` granules is lowered as a run whose
    *effective* database is the hot set itself (``db_size = hot_set_size``)
    — the contention-equivalent reduction: conflict probabilities depend on
    ``k``/``db_size``, not on which granules form the set.  With a large
    ``k`` against a small hot set and write-heavy updaters, data contention
    thrashes the system at admission levels the controller starts well above.
    """

    kind = "hot_key"

    #: offered load (terminals)
    n_terminals: int = 300
    #: size of the hot set every transaction draws from
    hot_set_size: int = 100
    #: accesses per transaction (clamped to the hot set)
    accesses: int = 12
    #: write probability of the updaters' accesses
    write_fraction: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hot_set_size < 1:
            raise ValueError(f"hot_set_size must be >= 1, got {self.hot_set_size}")
        if self.accesses < 1:
            raise ValueError(f"accesses must be >= 1, got {self.accesses}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """A stationary cell on the shrunken (hot-set) database."""
        base = default_system_params(seed=self.seed)
        workload = base.workload.with_changes(
            db_size=self.hot_set_size,
            accesses_per_txn=min(self.accesses, self.hot_set_size),
            write_fraction=self.write_fraction,
        )
        params = base.with_changes(n_terminals=self.n_terminals, workload=workload)
        return RunSpec(
            kind=KIND_STATIONARY,
            cell_id=self.cell_id(),
            params=params,
            scale=scale,
            controller=self._controller_spec(),
            label=self.kind,
        )


@dataclass(frozen=True)
class ArrivalBurstAdversary(AdversarySpec):
    """Arrival burst: many terminals with near-zero think time.

    In the closed model the arrival pressure is ``n_terminals / think_time``;
    shrinking the think time to milliseconds turns every commit into an
    immediate resubmission — a sustained burst that keeps the admission gate
    saturated and punishes a controller whose limit drifts too high.
    """

    kind = "arrival_burst"

    #: offered load (terminals)
    n_terminals: int = 400
    #: mean think time between transactions (seconds; tiny = burst)
    think_time: float = 0.05
    #: accesses per transaction
    accesses: int = 12

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.think_time < 0.0:
            raise ValueError(f"think_time must be non-negative, got {self.think_time}")
        if self.accesses < 1:
            raise ValueError(f"accesses must be >= 1, got {self.accesses}")

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """A stationary cell under sustained arrival pressure."""
        base = default_system_params(seed=self.seed)
        workload = base.workload.with_changes(
            accesses_per_txn=min(self.accesses, base.workload.db_size))
        params = base.with_changes(
            n_terminals=self.n_terminals,
            think_time=self.think_time,
            workload=workload,
        )
        return RunSpec(
            kind=KIND_STATIONARY,
            cell_id=self.cell_id(),
            params=params,
            scale=scale,
            controller=self._controller_spec(),
            label=self.kind,
        )


@dataclass(frozen=True)
class ClassMixFlipAdversary(AdversarySpec):
    """Hostile class mix: long queries sharing the gate with hot updaters.

    Lowered to a stationary :class:`~repro.tp.workload.MixedClassWorkload`
    cell: a heavy read-only class (``query_k`` accesses) interleaved with
    small write-heavy updaters.  The controller's measurements see the
    *expectation* of the mix (:func:`repro.tp.workload.mixed_class_params`),
    while individual long queries occupy admission slots far longer than
    the mean suggests — the classic way a mix flip starves the gate.
    """

    kind = "class_mix_flip"

    #: offered load (terminals)
    n_terminals: int = 300
    #: weight share of the long-query class, in (0, 1)
    query_weight: float = 0.3
    #: accesses per long query
    query_k: int = 40
    #: accesses per updater transaction
    oltp_k: int = 8
    #: write probability of the updaters' accesses
    oltp_write_fraction: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.query_weight < 1.0:
            raise ValueError(
                f"query_weight must be in (0, 1), got {self.query_weight}"
            )
        if self.query_k < 1 or self.oltp_k < 1:
            raise ValueError("query_k and oltp_k must be >= 1")
        if not 0.0 < self.oltp_write_fraction <= 1.0:
            raise ValueError(
                "oltp_write_fraction must be in (0, 1], "
                f"got {self.oltp_write_fraction}"
            )

    def workload_classes(self) -> Tuple[TransactionClassSpec, ...]:
        """The mixed-class description the lowered cell runs."""
        return (
            TransactionClassSpec(
                name="oltp",
                weight=1.0 - self.query_weight,
                accesses_per_txn=self.oltp_k,
                write_fraction=self.oltp_write_fraction,
            ),
            TransactionClassSpec(
                name="long-query",
                weight=self.query_weight,
                accesses_per_txn=self.query_k,
            ),
        )

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """A stationary mixed-class cell."""
        params = default_system_params(seed=self.seed).with_changes(
            n_terminals=self.n_terminals)
        return RunSpec(
            kind=KIND_STATIONARY,
            cell_id=self.cell_id(),
            params=params,
            scale=scale,
            controller=self._controller_spec(),
            label=self.kind,
            workload_classes=self.workload_classes(),
        )


@dataclass(frozen=True)
class DisplacementSpikeAdversary(AdversarySpec):
    """Displacement storm: a size spike with eager displacement enabled.

    Like :class:`SizeSpikeAdversary`, but the lowered cell carries a
    zero-hysteresis :class:`~repro.core.displacement.DisplacementPolicy`:
    every downward correction of the limit aborts running transactions.  A
    controller that oscillates after the spike then displaces the same work
    over and over — the livelock signature the oracle scores as
    ``displaced >> commits``.
    """

    kind = "displacement_spike"

    #: offered load (terminals)
    n_terminals: int = 300
    #: accesses per transaction before the spike
    before_k: int = 8
    #: accesses per transaction after the spike
    after_k: int = 32
    #: position of the jump as a fraction of the tracking horizon
    jump_fraction: float = 0.25
    #: victim-selection rule (a :class:`VictimCriterion` value)
    criterion: str = "youngest"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.jump_fraction < 1.0:
            raise ValueError(
                f"jump_fraction must be in (0, 1), got {self.jump_fraction}"
            )
        if self.before_k < 1 or self.after_k < 1:
            raise ValueError("before_k and after_k must be >= 1")
        VictimCriterion(self.criterion)  # raises ValueError on unknown values

    def lower(self, scale: ExperimentScale) -> RunSpec:
        """A tracking cell with displacement enabled across the spike."""
        params = contention_bound_params(seed=self.seed).with_changes(
            n_terminals=self.n_terminals)
        schedule = JumpSchedule(
            before=self.before_k,
            after=min(self.after_k, params.workload.db_size),
            jump_time=self.jump_fraction * scale.tracking_horizon,
        )
        return RunSpec(
            kind=KIND_TRACKING,
            cell_id=self.cell_id(),
            params=params,
            scale=scale,
            controller=self._controller_spec(),
            scenario=("accesses", schedule),
            label=self.kind,
            displacement=DisplacementPolicy(
                criterion=VictimCriterion(self.criterion), hysteresis=0.0),
        )


#: kind tag -> adversary class; adding an attack pattern is one entry here
ADVERSARIES = {cls.kind: cls for cls in (
    SizeSpikeAdversary, HotKeyAdversary, ArrivalBurstAdversary,
    ClassMixFlipAdversary, DisplacementSpikeAdversary)}
