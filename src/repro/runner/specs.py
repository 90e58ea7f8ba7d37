"""Picklable experiment descriptors: one cell of the evaluation grid.

The paper's evaluation is a grid of *independent* simulation cells — one
per (offered load, controller, scenario, replicate) combination.  To fan
those cells out over worker processes, each cell must be described by plain
data that survives pickling; stateful objects (controllers, simulators,
RNG streams) are only ever constructed *inside* the worker that runs the
cell.

* :class:`ControllerSpec` names a controller kind from a small registry and
  carries its constructor options;
* :class:`RunSpec` describes one cell: the kind of run (stationary point or
  dynamic tracking), system parameters, scale, controller, scenario and
  replicate index;
* :class:`SweepSpec` is an ordered collection of cells, optionally expanded
  into ``R`` replicates per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.canonical import canonical_digest
from repro.cc.registry import CCSpec
from repro.core.controller import LoadController
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.core.incremental_steps import IncrementalStepsController
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.parabola import ParabolaController
from repro.core.rules import IyerRule, TayRule
from repro.core.static import FixedLimit, NoControl
from repro.experiments.config import ExperimentScale
from repro.obs.catalog import ABORTS_BY_REASON, ISOLATION, TRACE, validate_observers
from repro.obs.probes import PROBE_NAMES
from repro.tp.arrivals import ArrivalProcess, ClosedArrivals, OpenArrivals, PartlyOpenArrivals
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    ParameterSchedule,
    SinusoidSchedule,
    StepSchedule,
    TransactionClassSpec,
)

#: values of :attr:`RunSpec.kind`
KIND_STATIONARY = "stationary"
KIND_TRACKING = "tracking"

#: a controller builder receives the cell's system parameters (for bounds
#: and workload-derived defaults) plus the spec's options
ControllerBuilder = Callable[..., LoadController]

_CONTROLLER_BUILDERS: Dict[str, ControllerBuilder] = {}


def register_controller(kind: str) -> Callable[[ControllerBuilder], ControllerBuilder]:
    """Register a controller builder under ``kind`` (decorator)."""

    def decorator(builder: ControllerBuilder) -> ControllerBuilder:
        if kind in _CONTROLLER_BUILDERS:
            raise ValueError(f"controller kind {kind!r} is already registered")
        _CONTROLLER_BUILDERS[kind] = builder
        return builder

    return decorator


def controller_kinds() -> Tuple[str, ...]:
    """All registered controller kinds."""
    return tuple(sorted(_CONTROLLER_BUILDERS))


@dataclass(frozen=True)
class ControllerSpec:
    """A picklable description of a controller: registry kind + options.

    ``options`` is stored as a sorted tuple of ``(name, value)`` pairs so
    specs are hashable and two specs with the same options compare equal
    regardless of keyword order.  Use :meth:`make` to build one from
    keyword arguments.
    """

    kind: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **options) -> "ControllerSpec":
        """Build a spec from keyword options."""
        return cls(kind=kind, options=tuple(sorted(options.items())))

    def build(self, params: SystemParams) -> LoadController:
        """Construct a fresh controller instance for one run."""
        builder = _CONTROLLER_BUILDERS.get(self.kind)
        if builder is None:
            raise KeyError(
                f"unknown controller kind {self.kind!r}; "
                f"available: {', '.join(controller_kinds())}"
            )
        return builder(params, **dict(self.options))


# ----------------------------------------------------------------------
# built-in controller kinds
#
# Defaults follow the parameterisations used throughout the benchmarks;
# every option can be overridden via ControllerSpec.make(kind, option=...).
# ----------------------------------------------------------------------
@register_controller("no_control")
def _build_no_control(params: SystemParams, **options) -> LoadController:
    settings = {"upper_bound": params.n_terminals}
    settings.update(options)
    return NoControl(**settings)


@register_controller("fixed")
def _build_fixed(params: SystemParams, **options) -> LoadController:
    settings = {"limit": 20.0, "upper_bound": params.n_terminals}
    settings.update(options)
    return FixedLimit(**settings)


@register_controller("tay")
def _build_tay(params: SystemParams, **options) -> LoadController:
    settings = {
        "db_size": params.workload.db_size,
        "accesses_per_txn": params.workload.accesses_per_txn,
        "upper_bound": params.n_terminals,
    }
    settings.update(options)
    return TayRule(**settings)


@register_controller("iyer")
def _build_iyer(params: SystemParams, **options) -> LoadController:
    settings = {
        "target_conflicts": 0.75,
        "step": 3.0,
        "initial_limit": 20.0,
        "upper_bound": params.n_terminals,
    }
    settings.update(options)
    return IyerRule(**settings)


@register_controller("incremental_steps")
def _build_incremental_steps(params: SystemParams, **options) -> LoadController:
    settings = {
        "initial_limit": 10.0,
        "beta": 1.0,
        "gamma": 5,
        "delta": 10,
        "min_step": 2.0,
        "lower_bound": 2.0,
        "upper_bound": params.n_terminals,
    }
    settings.update(options)
    return IncrementalStepsController(**settings)


@register_controller("parabola")
def _build_parabola(params: SystemParams, **options) -> LoadController:
    settings = {
        "initial_limit": 10.0,
        "forgetting": 0.9,
        "probe_amplitude": 3.0,
        "lower_bound": 2.0,
        "upper_bound": params.n_terminals,
    }
    settings.update(options)
    return ParabolaController(**settings)


# ----------------------------------------------------------------------
# run and sweep specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One cell of the experiment grid, as plain picklable data.

    ``controller`` may be

    * ``None`` — the system runs uncontrolled (no measurement loop at all),
    * a :class:`ControllerSpec` — built from the registry inside the worker,
    * a picklable callable ``factory(params) -> LoadController`` — supported
      so existing ``controller_factory`` call sites can delegate to the
      runner (lambdas/closures only work with the serial executor).

    ``cc`` selects the concurrency control scheme the same way: ``None``
    runs the system default (timestamp certification), a
    :class:`~repro.cc.registry.CCSpec` is resolved against the CC registry
    inside the worker, and a picklable callable ``factory(sim) ->
    ConcurrencyControl`` is supported for ad-hoc schemes (serial executor
    only for lambdas/closures).

    ``replicate`` selects the replicate branch of the run's random streams
    (see :meth:`repro.sim.random_streams.RandomStreams.spawn`); replicate 0
    is bitwise identical to a plain, non-replicated run.
    """

    kind: str
    cell_id: str
    params: SystemParams
    scale: ExperimentScale
    controller: Optional[object] = None
    #: tracking runs only: (parameter name, schedule) as produced by
    #: :func:`repro.experiments.dynamic.jump_scenario` and friends
    scenario: Optional[Tuple[str, ParameterSchedule]] = None
    replicate: int = 0
    #: label used to group cells into curves/series in reports
    label: str = ""
    displacement: Optional[DisplacementPolicy] = None
    interval_tuner: Optional[MeasurementIntervalTuner] = None
    #: stationary runs only: transaction classes of a mixed-class workload
    #: (None = the single-class workload described by ``params.workload``)
    workload_classes: Optional[Tuple[TransactionClassSpec, ...]] = None
    #: concurrency control scheme (None = the system default, timestamp
    #: certification); a CCSpec or a picklable ``factory(sim) -> scheme``
    cc: Optional[object] = None
    #: observers (:data:`~repro.obs.catalog.OBSERVER_NAMES`) to build inside
    #: whichever process executes the cell; normalised to catalog order, as
    #: a selection is a set.  Opt-in, since readouts extend the metric
    #: schema.  Every observer except ``trace`` is stationary-only.
    observers: Tuple[str, ...] = ()
    #: stationary runs only: how transactions enter the system.  ``None``
    #: (the default) and :class:`~repro.tp.arrivals.ClosedArrivals` run the
    #: paper's closed terminal model; :class:`~repro.tp.arrivals.OpenArrivals`
    #: / :class:`~repro.tp.arrivals.PartlyOpenArrivals` replace the terminals
    #: with an open source.  Opt-in (and JSON-emitted only when set) for the
    #: same golden-stability reason as the observers: cells that do not ask
    #: for an arrival model keep their byte-identical schema.
    arrivals: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_STATIONARY, KIND_TRACKING):
            raise ValueError(
                f"kind must be {KIND_STATIONARY!r} or {KIND_TRACKING!r}, got {self.kind!r}"
            )
        if self.replicate < 0:
            raise ValueError(f"replicate must be non-negative, got {self.replicate}")
        if self.kind == KIND_TRACKING and self.scenario is None:
            raise ValueError("tracking runs require a scenario")
        if self.kind == KIND_TRACKING and self.controller is None:
            raise ValueError("tracking runs require a controller")
        if self.workload_classes is not None and self.kind != KIND_STATIONARY:
            raise ValueError(
                "mixed-class workloads are supported for stationary runs only"
            )
        object.__setattr__(self, "observers", validate_observers(
            self.observers, stationary=self.kind == KIND_STATIONARY))
        if self.arrivals is not None:
            if self.kind != KIND_STATIONARY:
                raise ValueError(
                    "arrival models are supported for stationary runs only"
                )
            if not isinstance(self.arrivals, ArrivalProcess):
                raise TypeError(
                    "arrivals must be None or an ArrivalProcess, "
                    f"got {type(self.arrivals).__name__}"
                )
        if self.cc is not None and not isinstance(self.cc, CCSpec) \
                and not callable(self.cc):
            raise TypeError(
                "cc must be None, a CCSpec or a callable, "
                f"got {type(self.cc).__name__}"
            )

    def controller_factory(self) -> Optional[Callable[[SystemParams], LoadController]]:
        """The factory the single-cell experiment functions expect."""
        if self.controller is None:
            return None
        if isinstance(self.controller, ControllerSpec):
            return self.controller.build
        if callable(self.controller):
            return self.controller
        raise TypeError(
            "controller must be None, a ControllerSpec or a callable, "
            f"got {type(self.controller).__name__}"
        )

    def build_controller(self) -> Optional[LoadController]:
        """Construct the cell's controller instance (None if uncontrolled)."""
        factory = self.controller_factory()
        if factory is None:
            return None
        return factory(self.params)


# ----------------------------------------------------------------------
# JSON round-trip
#
# The fuzz corpus (tests/fuzz_corpus/) archives counterexample cells as
# replayable JSON documents, so a RunSpec must survive a trip through plain
# JSON data bit-identically: same spec in, equal spec out, equal simulated
# trajectory.  Only declarative specs round-trip — ad-hoc callables
# (controller/cc factories, interval tuners) have no data representation
# and are rejected loudly rather than silently dropped.
# ----------------------------------------------------------------------

#: format tag embedded in every encoded spec (bump on breaking changes)
RUN_SPEC_FORMAT = 1

#: wire key -> observer, for the observers encoded as booleans
_WIRE_FLAGS = {"scheme_diagnostics": ABORTS_BY_REASON, "isolation_diagnostics": ISOLATION}

_JSON_SCALARS = (str, int, float, bool, type(None))


def _encode_options(options: Tuple[Tuple[str, object], ...], what: str) -> dict:
    for name, value in options:
        if not isinstance(value, _JSON_SCALARS):
            raise ValueError(
                f"{what} option {name!r} is not a JSON scalar: {value!r}"
            )
    return dict(options)


def _encode_schedule(schedule: ParameterSchedule) -> dict:
    if isinstance(schedule, ConstantSchedule):
        return {"type": "constant", "value": schedule._value}
    if isinstance(schedule, JumpSchedule):
        return {"type": "jump", "before": schedule.before,
                "after": schedule.after, "jump_time": schedule.jump_time}
    if isinstance(schedule, StepSchedule):
        return {"type": "step", "initial": schedule.initial,
                "steps": [list(step) for step in schedule.steps]}
    if isinstance(schedule, SinusoidSchedule):
        return {"type": "sinusoid", "mean": schedule.mean,
                "amplitude": schedule.amplitude, "period": schedule.period,
                "phase": schedule.phase}
    raise ValueError(
        f"schedule type {type(schedule).__name__} has no JSON encoding"
    )


def _encode_arrivals(arrivals: ArrivalProcess) -> dict:
    if type(arrivals) is ClosedArrivals:
        return {"kind": ClosedArrivals.kind}
    if type(arrivals) is OpenArrivals:
        return {"kind": OpenArrivals.kind,
                "rate": _encode_schedule(arrivals.rate)}
    if type(arrivals) is PartlyOpenArrivals:
        return {"kind": PartlyOpenArrivals.kind,
                "rate": _encode_schedule(arrivals.rate),
                "session_alpha": arrivals.session_alpha,
                "min_session": arrivals.min_session,
                "max_session": arrivals.max_session,
                "session_think_time": arrivals.session_think_time}
    raise ValueError(
        f"arrival process type {type(arrivals).__name__} has no JSON encoding"
    )


def _decode_arrivals(data: dict) -> ArrivalProcess:
    kind = data["kind"]
    if kind == ClosedArrivals.kind:
        return ClosedArrivals()
    if kind == OpenArrivals.kind:
        return OpenArrivals(_decode_schedule(data["rate"]))
    if kind == PartlyOpenArrivals.kind:
        return PartlyOpenArrivals(
            _decode_schedule(data["rate"]),
            session_alpha=data["session_alpha"],
            min_session=data["min_session"],
            max_session=data["max_session"],
            session_think_time=data["session_think_time"],
        )
    raise ValueError(f"unknown arrival kind {kind!r}")


def _decode_schedule(data: dict) -> ParameterSchedule:
    kind = data["type"]
    if kind == "constant":
        return ConstantSchedule(data["value"])
    if kind == "jump":
        return JumpSchedule(before=data["before"], after=data["after"],
                            jump_time=data["jump_time"])
    if kind == "step":
        return StepSchedule(initial=data["initial"],
                            steps=[tuple(step) for step in data["steps"]])
    if kind == "sinusoid":
        return SinusoidSchedule(mean=data["mean"], amplitude=data["amplitude"],
                                period=data["period"], phase=data["phase"])
    raise ValueError(f"unknown schedule type {kind!r}")


def run_spec_to_jsonable(spec: RunSpec) -> dict:
    """Encode a declarative :class:`RunSpec` as JSON-serialisable plain data.

    Inverse of :func:`run_spec_from_jsonable`:
    ``run_spec_from_jsonable(run_spec_to_jsonable(spec)) == spec`` for every
    spec built from registry descriptors.  Specs carrying callables
    (controller/cc factories) or an interval tuner raise ``ValueError`` —
    those cells cannot be replayed from an archive.
    """
    if spec.controller is not None and not isinstance(spec.controller, ControllerSpec):
        raise ValueError(
            "only ControllerSpec controllers can be encoded as JSON, got "
            f"{type(spec.controller).__name__}"
        )
    if spec.cc is not None and not isinstance(spec.cc, CCSpec):
        raise ValueError(
            "only CCSpec concurrency control can be encoded as JSON, got "
            f"{type(spec.cc).__name__}"
        )
    if spec.interval_tuner is not None:
        raise ValueError("interval_tuner has no JSON encoding")
    params = spec.params
    workload = params.workload
    data = {
        "format": RUN_SPEC_FORMAT,
        "kind": spec.kind,
        "cell_id": spec.cell_id,
        "label": spec.label,
        "replicate": spec.replicate,
        "params": {
            "n_terminals": params.n_terminals,
            "think_time": params.think_time,
            "n_cpus": params.n_cpus,
            "cpu_init": params.cpu_init,
            "cpu_per_access": params.cpu_per_access,
            "cpu_commit": params.cpu_commit,
            "disk_per_access": params.disk_per_access,
            "disk_commit": params.disk_commit,
            "restart_delay": params.restart_delay,
            "stochastic_cpu": params.stochastic_cpu,
            "seed": params.seed,
            "workload": {
                "db_size": workload.db_size,
                "accesses_per_txn": workload.accesses_per_txn,
                "query_fraction": workload.query_fraction,
                "write_fraction": workload.write_fraction,
            },
        },
        "scale": {
            "stationary_horizon": spec.scale.stationary_horizon,
            "warmup": spec.scale.warmup,
            "offered_loads": [int(load) for load in spec.scale.offered_loads],
            "tracking_horizon": spec.scale.tracking_horizon,
            "measurement_interval": spec.scale.measurement_interval,
            "synthetic_steps": spec.scale.synthetic_steps,
        },
        "controller": None if spec.controller is None else {
            "kind": spec.controller.kind,
            "options": _encode_options(spec.controller.options, "controller"),
        },
        "scenario": None if spec.scenario is None else {
            "parameter": spec.scenario[0],
            "schedule": _encode_schedule(spec.scenario[1]),
        },
        "displacement": None if spec.displacement is None else {
            "criterion": spec.displacement.criterion.value,
            "enabled": spec.displacement.enabled,
            "hysteresis": spec.displacement.hysteresis,
        },
        "workload_classes": None if spec.workload_classes is None else [
            {
                "name": cls.name,
                "weight": cls.weight,
                "accesses_per_txn": cls.accesses_per_txn,
                "write_fraction": cls.write_fraction,
                # quota keys are emitted only when set, so archives of
                # quota-free mixes keep their pre-quota byte encoding
                **({"admission_quota": cls.admission_quota}
                   if cls.admission_quota is not None else {}),
                **({"queue_quota": cls.queue_quota}
                   if cls.queue_quota is not None else {}),
            }
            for cls in spec.workload_classes
        ],
        "cc": None if spec.cc is None else {
            "kind": spec.cc.kind,
            "options": _encode_options(spec.cc.options, "cc"),
        },
    }
    # observers keep their pre-catalog wire names, so existing fingerprints,
    # archives and the committed fuzz corpus (which CI compares byte for
    # byte) stay byte-identical: the two booleans always, the rest when set
    for key, name in _WIRE_FLAGS.items():
        data[key] = name in spec.observers
    probes = [name for name in spec.observers if name in PROBE_NAMES]
    if probes:
        data["probes"] = probes
    if TRACE in spec.observers:
        data["trace"] = True
    # same byte-identity discipline for the arrival model
    if spec.arrivals is not None:
        data["arrivals"] = _encode_arrivals(spec.arrivals)
    return data


def run_spec_from_jsonable(data: dict) -> RunSpec:
    """Reconstruct the :class:`RunSpec` encoded by :func:`run_spec_to_jsonable`."""
    fmt = data.get("format")
    if fmt != RUN_SPEC_FORMAT:
        raise ValueError(
            f"unsupported run-spec format {fmt!r} (expected {RUN_SPEC_FORMAT})"
        )
    params_data = dict(data["params"])
    workload = WorkloadParams(**params_data.pop("workload"))
    params = SystemParams(workload=workload, **params_data)
    scale_data = dict(data["scale"])
    scale_data["offered_loads"] = tuple(scale_data["offered_loads"])
    scale = ExperimentScale(**scale_data)
    controller = None
    if data["controller"] is not None:
        controller = ControllerSpec.make(
            data["controller"]["kind"], **data["controller"]["options"])
    scenario = None
    if data["scenario"] is not None:
        scenario = (data["scenario"]["parameter"],
                    _decode_schedule(data["scenario"]["schedule"]))
    displacement = None
    if data["displacement"] is not None:
        displacement = DisplacementPolicy(
            criterion=VictimCriterion(data["displacement"]["criterion"]),
            enabled=data["displacement"]["enabled"],
            hysteresis=data["displacement"]["hysteresis"],
        )
    workload_classes = None
    if data["workload_classes"] is not None:
        workload_classes = tuple(
            TransactionClassSpec(**cls) for cls in data["workload_classes"]
        )
    cc = None
    if data["cc"] is not None:
        cc = CCSpec.make(data["cc"]["kind"], **data["cc"]["options"])
    observers = [name for key, name in _WIRE_FLAGS.items() if data[key]]
    observers += data.get("probes") or []
    if data.get("trace"):
        observers.append(TRACE)
    return RunSpec(
        kind=data["kind"],
        cell_id=data["cell_id"],
        params=params,
        scale=scale,
        controller=controller,
        scenario=scenario,
        replicate=data["replicate"],
        label=data["label"],
        displacement=displacement,
        workload_classes=workload_classes,
        cc=cc,
        observers=observers,
        arrivals=(_decode_arrivals(data["arrivals"])
                  if data.get("arrivals") else None),
    )


#: version salt hashed into every :func:`run_spec_fingerprint`.  The hashed
#: document already embeds :data:`RUN_SPEC_FORMAT` (so encoder changes
#: produce new keys by construction); bump THIS constant when the
#: fingerprinting scheme itself changes — e.g. a different canonicalisation
#: or digest — so stale content-addressed cache entries can never be
#: misread as fresh ones.
SPEC_FINGERPRINT_VERSION = 1


def run_spec_fingerprint(spec: RunSpec) -> str:
    """Content fingerprint of a declarative cell: equal specs, equal keys.

    The blake2b-256 hex digest of the canonical JSON serialisation
    (:func:`repro.canonical.canonical_json`) of the resolved spec —
    :func:`run_spec_to_jsonable` output wrapped with
    :data:`SPEC_FINGERPRINT_VERSION`.  This is the cache key of the sweep
    service's content-addressed result cache (:mod:`repro.svc`): because
    every cell is bit-deterministic, two specs with equal fingerprints
    provably produce byte-identical results, which is what makes serving a
    repeated cell from the cache *sound* rather than approximate.

    Properties pinned by ``tests/svc/test_cache_key.py``: equal specs hash
    equal; any semantic perturbation (seed, offered load, CC option,
    schedule breakpoint, observer set, arrivals, replicate, ...) changes the
    key; the key is a pure function of the spec's content, stable across
    process boundaries, worker counts and hosts.  Specs that cannot be
    encoded as JSON (ad-hoc callables, interval tuners) raise ``ValueError``
    — such cells are uncacheable and must always be simulated.
    """
    return canonical_digest({
        "fingerprint_version": SPEC_FINGERPRINT_VERSION,
        "run_spec": run_spec_to_jsonable(spec),
    })


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of experiment cells (one logical sweep)."""

    name: str
    cells: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a sweep must contain at least one cell")
        seen = set()
        for cell in self.cells:
            key = (cell.cell_id, cell.replicate)
            if key in seen:
                # downstream grouping keys on cell_id; silently pooling two
                # different cells would corrupt the replicate statistics
                raise ValueError(
                    f"duplicate cell {cell.cell_id!r} (replicate {cell.replicate}) "
                    f"in sweep {self.name!r}"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.cells)

    def cell_ids(self) -> Tuple[str, ...]:
        """Distinct cell ids in first-appearance order."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.cell_id, None)
        return tuple(seen)

    def with_replicates(self, replicates: int) -> "SweepSpec":
        """Expand every cell into ``replicates`` replicate runs.

        Replicates of one cell are adjacent and ordered by replicate index,
        so the result order of an executor run remains deterministic.
        Cells that already carry a non-zero replicate index cannot be
        expanded again.
        """
        if replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {replicates}")
        if replicates == 1:
            return self
        if any(cell.replicate != 0 for cell in self.cells):
            raise ValueError("the sweep has already been expanded into replicates")
        expanded = tuple(
            replace(cell, replicate=index)
            for cell in self.cells
            for index in range(replicates)
        )
        return SweepSpec(name=self.name, cells=expanded)
