"""Workload generation and dynamic parameter schedules.

The paper drives its dynamic experiments by changing one of three workload
parameters during the run (Section 7):

* ``k`` -- the number of granules accessed per transaction,
* the fraction of read-only queries,
* the fraction of write accesses of the updaters,

in either a *jump-like* fashion (abrupt change, Figures 13/14) or a
*sinusoidal* fashion (smooth, gradual change).  All of these move the height
and the position of the throughput optimum.

:class:`ParameterSchedule` and its four implementations describe one
scalar parameter as a function of simulated time.  Each is a frozen
dataclass evaluated by calling it, ``schedule(t)``, and answers for itself
which values it can take (:meth:`~ParameterSchedule.values`) and how high
it can go (:meth:`~ParameterSchedule.peak`).  :class:`Workload` takes a
number or a schedule for each of the three parameters, named once in
:data:`VARIED_PARAMETERS`, samples concrete transactions, and exposes the
*current* :class:`~repro.tp.params.WorkloadParams` so analytic reference
models can compute the true optimum at any instant.
:class:`MixedClassWorkload` only picks a class per submission; both
workloads build the transaction with the same sampler.

A transaction is sampled in two steps.  At submission the workload draws
its class (``txn-class`` or ``class-mix``) and numbers it; the gate needs
its tenant.  At its first admission :meth:`Workload.draw_through` draws the
access sets and write marks of every transaction submitted up to it that
is still undrawn, in submission order, so the ``data-access`` and
``write-marks`` streams are read in the order, and give the values, of a
draw at submission.  A transaction that waits at the gate until the run
ends, with no later submission admitted, draws nothing.

:class:`ExponentialDraws` and :class:`UniformDraws` read a stream with one
reader from numpy blocks instead of one scalar call per draw: the
transaction-class draws here, and the think, CPU, restart, session-think
and arrival draws of :mod:`repro.tp.system`.
"""

from __future__ import annotations

import collections
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Tuple

from repro.sim.random_streams import RandomStreams
from repro.tp.database import Database
from repro.tp.params import WorkloadParams
from repro.tp.transaction import Transaction, TransactionClass

#: variates a buffered stream takes from numpy per refill
DRAW_BLOCK = 256


class _BlockDraws:
    """One single-consumer random stream, read from blocks of ``DRAW_BLOCK`` variates.

    numpy fills a block with the variates, in the order, that as many scalar
    calls would return (``tests/sim/test_random_streams.py`` pins this), so
    buffering moves no draw.  Only one reader may draw from the stream: a
    second one would take whole blocks instead of alternating draws.  The
    generator comes from :meth:`RandomStreams.stream` at the first refill,
    so a reader that never draws leaves its stream uncreated.
    """

    __slots__ = ("_streams", "_name", "_values")

    #: the ``Generator`` method that fills a block
    _fill = ""

    def __init__(self, streams: RandomStreams, name: str):
        self._streams = streams
        self._name = name
        #: the rest of the current block, next variate last
        self._values: list = []

    def _refill(self) -> list:
        generator = self._streams.stream(self._name)
        values = getattr(generator, self._fill)(DRAW_BLOCK).tolist()
        values.reverse()
        self._values = values
        return values


class ExponentialDraws(_BlockDraws):
    """Exponential variates ``mean * x``, ``x`` read from ``standard_exponential`` blocks.

    ``Generator.exponential(mean)`` computes the same product, so every
    draw equals the scalar call's bit for bit.  A zero mean draws nothing.
    """

    __slots__ = ()
    _fill = "standard_exponential"

    def draw(self, mean: float) -> float:
        """One exponential variate with the given mean."""
        if mean == 0:
            return 0.0
        values = self._values or self._refill()
        return mean * values.pop()

    def standard(self) -> float:
        """One standard (mean 1) exponential variate: ``draw(mean)`` is ``mean * standard()``."""
        values = self._values or self._refill()
        return values.pop()

    def put_back(self, value: float) -> None:
        """Return ``value``, the latest variate read, so the next draw reads it again.

        The CPU station gives back the variate of a visit cancelled before
        it started (see :mod:`repro.sim.resources`).
        """
        self._values.append(value)


class UniformDraws(_BlockDraws):
    """Uniform variates on [0, 1) read from ``random`` blocks, as ``Generator.random()`` draws them."""

    __slots__ = ()
    _fill = "random"

    def draw(self) -> float:
        """One uniform variate."""
        values = self._values or self._refill()
        return values.pop()

    def bernoulli(self, probability: float) -> bool:
        """One Bernoulli trial; a probability of 0 or 1 draws nothing."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            return False
        if probability == 1.0:
            return True
        return self.draw() < probability


class ParameterSchedule(ABC):
    """A scalar workload parameter as a function of simulated time.

    Every concrete schedule is a frozen dataclass of floats and holds no run
    state: it compares and hashes by its fields, survives pickling and the
    JSON codec of :mod:`repro.runner.specs` unchanged, and is evaluated by
    calling it, ``schedule(t)``.  The class-level ``type`` is its wire tag.
    """

    #: wire tag of the schedule type in an encoded spec
    type = ""

    @abstractmethod
    def __call__(self, time: float) -> float:
        """Parameter value in effect at ``time``."""

    def values(self) -> Tuple[float, ...]:
        """Every value the schedule can take; empty if it varies continuously.

        Continuously varying schedules (the sinusoid) are range-checked at
        evaluation time instead (see :meth:`Workload.params_at`).
        """
        return ()

    def peak(self) -> float:
        """A static upper bound on the schedule's values.

        The majorising rate of the arrivals' thinning loop, so it must
        dominate ``self(t)`` for every ``t``.  A schedule type that cannot
        bound itself raises: an under-estimated bound would silently distort
        the arrival process rather than fail.
        """
        raise ValueError(
            f"cannot bound the peak of schedule type {type(self).__name__}; "
            "thinning needs a static majorising rate"
        )


def _store(instance, convert, *names: str) -> None:
    """Store ``convert(value)`` in each named field of a frozen dataclass.

    Fields hold exactly the types the constructors always produced (floats
    stay floats when given ints), so equal schedules encode to equal JSON
    and equal fingerprints.
    """
    for name in names:
        object.__setattr__(instance, name, convert(getattr(instance, name)))


@dataclass(frozen=True)
class ConstantSchedule(ParameterSchedule):
    """A parameter that never changes."""

    type = "constant"

    value: float

    def __post_init__(self) -> None:
        _store(self, float, "value")

    def __call__(self, time: float) -> float:
        return self.value

    def values(self) -> Tuple[float, ...]:
        """The one value."""
        return (self.value,)

    def peak(self) -> float:
        """The one value."""
        return self.value


@dataclass(frozen=True)
class JumpSchedule(ParameterSchedule):
    """Abrupt change from ``before`` to ``after`` at ``jump_time``.

    Models the jump-like workload variation of Figures 13/14.  Multiple jumps
    can be expressed with :class:`StepSchedule`.
    """

    type = "jump"

    before: float
    after: float
    jump_time: float

    def __post_init__(self) -> None:
        _store(self, float, "before", "after", "jump_time")

    def __call__(self, time: float) -> float:
        return self.after if time >= self.jump_time else self.before

    def values(self) -> Tuple[float, ...]:
        """The values before and after the jump."""
        return (self.before, self.after)

    def peak(self) -> float:
        """The larger of the two values."""
        return max(self.before, self.after)


@dataclass(frozen=True)
class StepSchedule(ParameterSchedule):
    """Piecewise-constant schedule given as (time, value) breakpoints."""

    type = "step"

    initial: float
    #: (time, value) breakpoints as float pairs, sorted by time
    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        _store(self, float, "initial")
        steps = tuple(sorted((float(t), float(v)) for t, v in self.steps))
        object.__setattr__(self, "steps", steps)
        times = [t for t, _ in steps]
        if len(set(times)) != len(times):
            duplicates = sorted({t for t in times if times.count(t) > 1})
            raise ValueError(
                "StepSchedule breakpoints must have distinct times; the "
                f"effective value at a duplicated time would depend on input "
                f"order (duplicated: {duplicates})"
            )

    def __call__(self, time: float) -> float:
        current = self.initial
        for step_time, step_value in self.steps:
            if time >= step_time:
                current = step_value
            else:
                break
        return current

    def values(self) -> Tuple[float, ...]:
        """The initial value and the value of every breakpoint."""
        return (self.initial,) + tuple(value for _, value in self.steps)

    def peak(self) -> float:
        """The largest of :meth:`values`."""
        return max(self.values())


@dataclass(frozen=True)
class SinusoidSchedule(ParameterSchedule):
    """Smooth periodic variation around a mean value.

    ``schedule(t) = mean + amplitude * sin(2*pi*(t - phase)/period)`` -- the
    "sinusoidal variation modelling more smooth and gradual changes" of
    Section 9.
    """

    type = "sinusoid"

    mean: float
    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        _store(self, float, "mean", "amplitude", "period", "phase")

    def __call__(self, time: float) -> float:
        return self.mean + self.amplitude * math.sin(
            2.0 * math.pi * (time - self.phase) / self.period
        )

    def peak(self) -> float:
        """The crest, ``mean + |amplitude|``."""
        return self.mean + abs(self.amplitude)


def _as_schedule(value) -> ParameterSchedule:
    """Coerce a number into a ConstantSchedule, pass schedules through."""
    if isinstance(value, ParameterSchedule):
        return value
    return ConstantSchedule(float(value))


#: the workload parameters a dynamic experiment can vary: the keywords of
#: :class:`Workload` that take a schedule, and the names a tracking
#: scenario may give
VARIED_PARAMETERS = ("accesses", "query_fraction", "write_fraction")


def check_varied_parameter(name: str) -> str:
    """Return ``name`` if it is one of :data:`VARIED_PARAMETERS`, else raise ``ValueError``."""
    if name not in VARIED_PARAMETERS:
        raise ValueError(f"parameter must be one of {VARIED_PARAMETERS}, got {name!r}")
    return name


class Workload:
    """Samples transactions according to (possibly time-varying) parameters.

    Each of ``accesses``, ``query_fraction`` and ``write_fraction`` (see
    :data:`VARIED_PARAMETERS`) is a number, a :class:`ParameterSchedule`, or
    ``None`` for the value in ``base``.
    """

    def __init__(self, base: WorkloadParams, streams: RandomStreams,
                 accesses=None, query_fraction=None, write_fraction=None):
        self.base = base
        self.streams = streams
        self.database = Database(base.db_size, streams)
        self._txn_class = UniformDraws(streams, "txn-class")
        self._accesses = _as_schedule(
            base.accesses_per_txn if accesses is None else accesses)
        self._query_fraction = _as_schedule(
            base.query_fraction if query_fraction is None else query_fraction)
        self._write_fraction = _as_schedule(
            base.write_fraction if write_fraction is None else write_fraction)
        self._next_txn_id = 0
        #: (transaction, k, write fraction) of every submitted transaction
        #: not drawn yet, in submission order
        self._undrawn: collections.deque = collections.deque()
        # (k, query_fraction, write_fraction) -> WorkloadParams of the last
        # call; params_at is invoked per submission and the values are
        # piecewise constant, so the frozen result is almost always reusable
        self._params_cache: Optional[Tuple[Tuple[float, float, float], WorkloadParams]] = None
        self._reject_static_out_of_range()
        # with three constant schedules the parameters never change:
        # params_at returns this one value without evaluating anything
        self._constant_params: Optional[WorkloadParams] = None
        if all(isinstance(schedule, ConstantSchedule) for schedule in
               (self._accesses, self._query_fraction, self._write_fraction)):
            self._constant_params = self.params_at(0.0)

    def _reject_static_out_of_range(self) -> None:
        """Fail loudly on constant/jump/step schedules outside the domain.

        A statically out-of-range schedule would be clamped on *every*
        evaluation — the run would silently report and sweep different
        parameters than the spec declared, and the analytic reference would
        be computed from the clamped values.  Rejecting at construction
        turns that misconfiguration into an immediate error; only
        genuinely dynamic excursions (a sinusoid overshooting its domain)
        reach the clamp of :meth:`params_at`.
        """
        db_size = self.base.db_size
        for value in self._accesses.values():
            k = int(round(value))
            if not 1 <= k <= db_size:
                raise ValueError(
                    f"accesses schedule value {value} is outside [1, {db_size}] "
                    "(after rounding); the run would silently clamp it"
                )
        for name, schedule in (("query_fraction", self._query_fraction),
                               ("write_fraction", self._write_fraction)):
            for value in schedule.values():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"{name} schedule value {value} is outside [0, 1]; "
                        "the run would silently clamp it"
                    )

    # ------------------------------------------------------------------
    # time-varying parameter access
    # ------------------------------------------------------------------
    def params_at(self, time: float) -> WorkloadParams:
        """The workload parameters in effect at ``time``.

        Values of *dynamic* schedules that stray outside the valid domain
        (a sinusoid whose amplitude exceeds its mean, say) are clamped into
        it.  Statically out-of-range schedules never get this far — they
        are rejected at construction.
        """
        if self._constant_params is not None:
            return self._constant_params
        k = max(1, min(int(round(self._accesses(time))), self.base.db_size))
        query_fraction = min(1.0, max(0.0, self._query_fraction(time)))
        write_fraction = min(1.0, max(0.0, self._write_fraction(time)))
        key = (k, query_fraction, write_fraction)
        cached = self._params_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        params = self.base.with_changes(
            accesses_per_txn=k,
            query_fraction=query_fraction,
            write_fraction=write_fraction,
        )
        self._params_cache = (key, params)
        return params

    # ------------------------------------------------------------------
    # transaction sampling
    # ------------------------------------------------------------------
    def next_transaction(self, time: float, terminal_id: int) -> Transaction:
        """The next transaction submitted by ``terminal_id`` at ``time``, its accesses undrawn."""
        params = self.params_at(time)
        is_query = self._txn_class.bernoulli(params.query_fraction)
        return self._transaction(time, terminal_id, params.accesses_per_txn,
                                 is_query, params.write_fraction)

    def _transaction(self, time: float, terminal_id: int, k: int, is_query: bool,
                     write_fraction: float, tenant: str = "") -> Transaction:
        """Number one transaction of ``k`` accesses and queue it for :meth:`draw_through`."""
        txn = Transaction(
            txn_id=self._next_txn_id,
            terminal_id=terminal_id,
            txn_class=TransactionClass.QUERY if is_query else TransactionClass.UPDATER,
            tenant=tenant,
            submitted_at=time,
        )
        self._next_txn_id += 1
        self._undrawn.append((txn, k, write_fraction))
        return txn

    def draw_through(self, txn: Transaction) -> None:
        """Draw the accesses of every undrawn transaction submitted up to ``txn``.

        In submission order, so each draw reads the streams where a draw at
        submission would have.  An updater draws ``k`` write marks in one
        vector, which consumes the ``write-marks`` stream exactly like
        ``k`` scalar draws (pinned by the golden-trajectory harness), and
        always performs at least one write when its write fraction is
        positive: otherwise it would silently degrade into a query and
        dilute the class mix.  A transaction drawn already draws nothing.
        """
        undrawn = self._undrawn
        while undrawn and undrawn[0][0].txn_id <= txn.txn_id:
            pending, k, write_fraction = undrawn.popleft()
            items = self.database.sample_access_set(k)
            if pending.txn_class is TransactionClass.QUERY:
                write_flags = (False,) * k
            else:
                rng = self.streams.stream("write-marks")
                flags = [mark < write_fraction for mark in rng.random(k).tolist()]
                if write_fraction > 0.0 and True not in flags:
                    flags[int(rng.integers(0, k))] = True
                write_flags = tuple(flags)
            pending.set_accesses(items, write_flags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Workload k={self._accesses!r} query={self._query_fraction!r} "
            f"write={self._write_fraction!r}>"
        )


# ----------------------------------------------------------------------
# mixed transaction classes (OLTP + long queries)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransactionClassSpec:
    """One transaction class of a mixed workload, as picklable plain data.

    ``write_fraction == 0`` makes the class read-only (its transactions are
    :attr:`~repro.tp.transaction.TransactionClass.QUERY` instances); any
    positive write fraction makes it an updater class that, like the base
    workload's updaters, always performs at least one write.
    """

    name: str
    #: relative frequency of the class in the mix (normalised over classes)
    weight: float
    #: granules accessed per transaction of this class (its own ``k``)
    accesses_per_txn: int
    #: probability that an access of this class's updaters is a write
    write_fraction: float = 0.0
    #: cap on this tenant's concurrently *admitted* transactions (open-system
    #: isolation: one bursting tenant cannot monopolise the gate's limit);
    #: None = bounded only by the gate's global threshold
    admission_quota: Optional[int] = None
    #: cap on this tenant's *waiting* transactions; an arrival beyond it is
    #: shed (its admission fails) instead of queued.  None = unbounded queue
    queue_quota: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a transaction class needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.accesses_per_txn < 1:
            raise ValueError(
                f"accesses_per_txn must be >= 1, got {self.accesses_per_txn}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )
        if self.admission_quota is not None and self.admission_quota < 1:
            raise ValueError(
                f"admission_quota must be >= 1, got {self.admission_quota}"
            )
        if self.queue_quota is not None and self.queue_quota < 0:
            raise ValueError(
                f"queue_quota must be >= 0, got {self.queue_quota}"
            )

    @property
    def is_query(self) -> bool:
        """True for a read-only class."""
        return self.write_fraction == 0.0


def mixed_class_params(base: WorkloadParams,
                       classes: Sequence[TransactionClassSpec]) -> WorkloadParams:
    """The expected single-class parameters of a weighted class mix.

    Weight-averages the transaction size over all classes, derives the
    aggregate query fraction from the read-only classes' weight share, and
    weight-averages the write fraction over the *updater* classes (queries
    perform no writes, so they carry no information about the write ratio of
    the writes that do happen).  A mix without updaters keeps
    ``base.write_fraction`` — the value is then irrelevant because no
    transaction ever consults it.

    This is the single source of truth for what load controllers, analytic
    reference models and the fuzz oracle should see as "the" parameters of a
    :class:`MixedClassWorkload`.
    """
    if not classes:
        raise ValueError("at least one transaction class is required")
    classes = tuple(classes)
    total_weight = sum(spec.weight for spec in classes)
    mean_k = sum(spec.weight * spec.accesses_per_txn for spec in classes) / total_weight
    query_weight = sum(spec.weight for spec in classes if spec.is_query)
    updater_weight = total_weight - query_weight
    if updater_weight > 0.0:
        write_fraction = sum(
            spec.weight * spec.write_fraction for spec in classes if not spec.is_query
        ) / updater_weight
    else:
        write_fraction = base.write_fraction
    return base.with_changes(
        accesses_per_txn=max(1, min(int(round(mean_k)), base.db_size)),
        query_fraction=query_weight / total_weight,
        write_fraction=write_fraction,
    )


class MixedClassWorkload(Workload):
    """Several transaction classes with distinct size and write ratio.

    The base :class:`Workload` realises the paper's single-class model: one
    ``k`` for every transaction, the query/updater split drawn per the
    query fraction.  This subclass realises the mixed OLTP/query workload:
    each submission first draws a *class* from the weighted mix (its own
    ``class-mix`` stream, so the class sequence forms common random numbers
    across controllers); its access set and write marks, drawn at its
    first admission, follow that class's own size and write ratio — small
    frequent updaters sharing the gate with long read-only queries.

    :meth:`params_at` reports the *expectation* of the mix (weight-averaged
    transaction size, aggregate query fraction, weight-averaged updater
    write fraction — see :func:`mixed_class_params`), so load controllers
    and analytic references keep seeing meaningful mean parameters.
    """

    def __init__(self, base: WorkloadParams, streams: RandomStreams,
                 classes: Sequence[TransactionClassSpec]):
        classes = tuple(classes)
        super().__init__(mixed_class_params(base, classes), streams)
        self.classes = classes
        total_weight = sum(spec.weight for spec in classes)
        cumulative = list(accumulate(spec.weight / total_weight for spec in classes))
        cumulative[-1] = 1.0  # guard against float round-off at the top end
        self._cumulative = tuple(cumulative)
        self._class_mix = UniformDraws(streams, "class-mix")

    def next_transaction(self, time: float, terminal_id: int) -> Transaction:
        """Draw a class from the mix; the accesses follow the class's profile."""
        draw = self._class_mix.draw()
        index = 0
        while draw >= self._cumulative[index]:
            index += 1
        spec = self.classes[index]
        return self._transaction(time, terminal_id, min(spec.accesses_per_txn, self.base.db_size),
                                 spec.is_query, spec.write_fraction, spec.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mix = ", ".join(
            f"{spec.name}:{spec.weight:g}(k={spec.accesses_per_txn})"
            for spec in self.classes
        )
        return f"<MixedClassWorkload {mix}>"
