"""Picklable experiment descriptors: one cell of the evaluation grid.

The paper's evaluation is a grid of *independent* simulation cells — one
per (offered load, controller, scenario, replicate) combination.  To fan
those cells out over worker processes, each cell must be described by plain
data that survives pickling; stateful objects (controllers, simulators,
RNG streams) are only ever constructed *inside* the worker that runs the
cell.

* :class:`ControllerSpec` names a controller kind of the
  :data:`CONTROLLERS` table and carries its constructor options;
* :class:`RunSpec` describes one cell: the kind of run (stationary point or
  dynamic tracking), system parameters, scale, controller, scenario and
  replicate index.  Every value it carries is a frozen dataclass that holds
  no run state, so running a cell never changes its spec;
* :class:`SweepSpec` is an ordered collection of cells, optionally expanded
  into ``R`` replicates per cell.

Adding a controller kind is one row of :data:`CONTROLLERS`.  The JSON codec
(:func:`run_spec_to_jsonable` / :func:`run_spec_from_jsonable`) writes each
value from its fields and reads schedules and arrival processes back
through one tag table each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

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
from repro.tp.arrivals import ArrivalProcess, OpenArrivals, PartlyOpenArrivals
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    ParameterSchedule,
    SinusoidSchedule,
    StepSchedule,
    TransactionClassSpec,
    check_varied_parameter,
)

#: values of :attr:`RunSpec.kind`
KIND_STATIONARY = "stationary"
KIND_TRACKING = "tracking"

#: kind -> (controller class, default options).  Every kind's
#: ``upper_bound`` defaults to the cell's ``params.n_terminals``, ``tay``
#: also takes ``db_size`` and ``accesses_per_txn`` from ``params.workload``,
#: and a spec's options override all defaults.  The defaults follow the
#: parameterisations used throughout the benchmarks.
CONTROLLERS: Dict[str, Tuple[type, Dict[str, object]]] = {
    "no_control": (NoControl, {}),
    "fixed": (FixedLimit, {"limit": 20.0}),
    "tay": (TayRule, {}),
    "iyer": (IyerRule, {"target_conflicts": 0.75, "step": 3.0,
                        "initial_limit": 20.0}),
    "incremental_steps": (IncrementalStepsController, {
        "initial_limit": 10.0, "beta": 1.0, "gamma": 5, "delta": 10,
        "min_step": 2.0, "lower_bound": 2.0}),
    "parabola": (ParabolaController, {
        "initial_limit": 10.0, "forgetting": 0.9, "probe_amplitude": 3.0,
        "lower_bound": 2.0}),
}


def controller_kinds() -> Tuple[str, ...]:
    """All controller kinds."""
    return tuple(sorted(CONTROLLERS))


@dataclass(frozen=True)
class ControllerSpec:
    """A picklable description of a controller: a :data:`CONTROLLERS` kind + options.

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
        row = CONTROLLERS.get(self.kind)
        if row is None:
            raise KeyError(
                f"unknown controller kind {self.kind!r}; "
                f"available: {', '.join(controller_kinds())}"
            )
        controller_class, defaults = row
        settings = {"upper_bound": params.n_terminals, **defaults}
        if controller_class is TayRule:
            settings["db_size"] = params.workload.db_size
            settings["accesses_per_txn"] = params.workload.accesses_per_txn
        settings.update(self.options)
        return controller_class(**settings)


# ----------------------------------------------------------------------
# run and sweep specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One cell of the experiment grid, as plain data.

    Every field is declarative, so every cell round-trips through
    :func:`run_spec_to_jsonable` and has a :func:`run_spec_fingerprint`.
    ``controller`` is ``None`` (the system runs uncontrolled, with no
    measurement loop at all) or a :class:`ControllerSpec`; ``cc`` is
    ``None`` (the system default, timestamp certification) or a
    :class:`~repro.cc.registry.CCSpec`.  Both are built from their kind
    tables inside whichever process executes the cell; anything else
    raises ``TypeError`` here.  Every other value is a frozen dataclass
    that holds no run state, so executing a cell leaves its spec, its
    pickle and its fingerprint unchanged.

    ``replicate`` selects the replicate branch of the run's random streams
    (see :meth:`repro.sim.random_streams.RandomStreams.spawn`); replicate 0
    is bitwise identical to a plain, non-replicated run.
    """

    kind: str
    cell_id: str
    params: SystemParams
    scale: ExperimentScale
    controller: Optional[ControllerSpec] = None
    #: tracking runs only: (parameter name, schedule) as produced by
    #: :func:`repro.experiments.dynamic.jump_scenario` and friends; the name
    #: is one of :data:`~repro.tp.workload.VARIED_PARAMETERS`
    scenario: Optional[Tuple[str, ParameterSchedule]] = None
    replicate: int = 0
    #: label used to group cells into curves/series in reports
    label: str = ""
    #: tracking runs only: the displacement policy and the outer loop
    #: tuning the measurement interval
    displacement: Optional[DisplacementPolicy] = None
    interval_tuner: Optional[MeasurementIntervalTuner] = None
    #: stationary runs only: transaction classes of a mixed-class workload
    #: (None = the single-class workload described by ``params.workload``)
    workload_classes: Optional[Tuple[TransactionClassSpec, ...]] = None
    #: concurrency control scheme (None = the system default, timestamp
    #: certification)
    cc: Optional[CCSpec] = None
    #: observers (:data:`~repro.obs.catalog.OBSERVER_NAMES`) to build inside
    #: whichever process executes the cell; normalised to catalog order, as
    #: a selection is a set.  Opt-in, since readouts extend the metric
    #: schema.  Every observer except ``trace`` is stationary-only.
    observers: Tuple[str, ...] = ()
    #: stationary runs only: how transactions enter the system.  ``None``
    #: (the default) is the paper's closed terminal model;
    #: :class:`~repro.tp.arrivals.OpenArrivals` /
    #: :class:`~repro.tp.arrivals.PartlyOpenArrivals` replace the terminals
    #: with an open source, and only then does the gate enforce the tenant
    #: quotas of ``workload_classes``.  Opt-in (and JSON-emitted only when
    #: set) for the same golden-stability reason as the observers: cells
    #: that do not ask for an arrival model keep their byte-identical schema.
    arrivals: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_STATIONARY, KIND_TRACKING):
            raise ValueError(
                f"kind must be {KIND_STATIONARY!r} or {KIND_TRACKING!r}, got {self.kind!r}"
            )
        if self.replicate < 0:
            raise ValueError(f"replicate must be non-negative, got {self.replicate}")
        if self.controller is not None and not isinstance(self.controller, ControllerSpec):
            raise TypeError(
                "controller must be None or a ControllerSpec, "
                f"got {type(self.controller).__name__}"
            )
        if self.cc is not None and not isinstance(self.cc, CCSpec):
            raise TypeError(f"cc must be None or a CCSpec, got {type(self.cc).__name__}")
        if self.kind == KIND_TRACKING:
            if self.scenario is None:
                raise ValueError("tracking runs require a scenario")
            check_varied_parameter(self.scenario[0])
            if self.controller is None:
                raise ValueError("tracking runs require a controller")
            if self.workload_classes is not None:
                raise ValueError(
                    "mixed-class workloads are supported for stationary runs only"
                )
        else:
            # a stationary run ignores these, so accepting them would file
            # one result under several cache keys
            for name in ("scenario", "displacement", "interval_tuner"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} is supported for tracking runs only")
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
        elif any(cls.admission_quota is not None or cls.queue_quota is not None
                 for cls in self.workload_classes or ()):
            # the closed model's gate enforces no quotas: the cell would run
            # as its quota-free twin under another cache key
            raise ValueError(
                "tenant quotas need an arrival model; the closed model enforces none")

    def build_controller(self) -> Optional[LoadController]:
        """Construct the cell's controller instance (None if uncontrolled)."""
        if self.controller is None:
            return None
        return self.controller.build(self.params)


# ----------------------------------------------------------------------
# JSON round-trip
#
# The fuzz corpus (tests/fuzz_corpus/) archives counterexample cells as
# replayable JSON documents, so a RunSpec must survive a trip through plain
# JSON data bit-identically: same spec in, equal spec out, equal simulated
# trajectory.  What the codec cannot represent (a non-scalar option value,
# an unknown schedule or arrival subclass) is rejected loudly rather than
# silently dropped.
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


#: wire tag -> class, for the two families of tagged values: schedules
#: (tagged by ``type``) and arrival processes (tagged by ``kind``)
_SCHEDULES = {cls.type: cls for cls in (
    ConstantSchedule, JumpSchedule, StepSchedule, SinusoidSchedule)}
_ARRIVALS = {cls.kind: cls for cls in (OpenArrivals, PartlyOpenArrivals)}


def _encode_tagged(value, tag: str, table: dict) -> dict:
    """``value``'s fields under its wire tag; a ``rate`` field nests a schedule.

    A shallow copy of the fields, not ``dataclasses.asdict``: the service
    fingerprints every cell of every job, and ``asdict`` costs several
    times more.  A subclass outside ``table`` raises, since it would
    decode as its base class.
    """
    name = getattr(value, tag, None)
    if table.get(name) is not type(value):
        raise ValueError(f"{type(value).__name__} has no JSON encoding")
    data = {tag: name, **vars(value)}
    if "rate" in data:
        data["rate"] = _encode_tagged(data["rate"], "type", _SCHEDULES)
    return data


def _decode_tagged(data: dict, tag: str, table: dict):
    """Inverse of :func:`_encode_tagged`."""
    fields = dict(data)
    name = fields.pop(tag)
    cls = table.get(name)
    if cls is None:
        raise ValueError(f"unknown {tag} {name!r}")
    if "rate" in fields:
        fields["rate"] = _decode_tagged(fields["rate"], "type", _SCHEDULES)
    return cls(**fields)


def run_spec_to_jsonable(spec: RunSpec) -> dict:
    """Encode a :class:`RunSpec` as JSON-serialisable plain data.

    Inverse of :func:`run_spec_from_jsonable`:
    ``run_spec_from_jsonable(run_spec_to_jsonable(spec)) == spec`` for every
    spec.  Two inputs raise ``ValueError``: a controller or CC option value
    that is not a JSON scalar, and a schedule or arrival-process subclass
    the codec does not know.
    """
    params = spec.params
    data = {
        "format": RUN_SPEC_FORMAT,
        "kind": spec.kind,
        "cell_id": spec.cell_id,
        "label": spec.label,
        "replicate": spec.replicate,
        "params": {**vars(params), "workload": dict(vars(params.workload))},
        "scale": {**vars(spec.scale), "offered_loads": [
            int(load) for load in spec.scale.offered_loads]},
        "controller": None if spec.controller is None else {
            "kind": spec.controller.kind,
            "options": _encode_options(spec.controller.options, "controller"),
        },
        "scenario": None if spec.scenario is None else {
            "parameter": spec.scenario[0],
            "schedule": _encode_tagged(spec.scenario[1], "type", _SCHEDULES),
        },
        "displacement": None if spec.displacement is None else {
            **vars(spec.displacement),
            "criterion": spec.displacement.criterion.value,
        },
        # quota keys (the only fields that may be None) are emitted only
        # when set, so archives of quota-free mixes keep their pre-quota
        # byte encoding
        "workload_classes": None if spec.workload_classes is None else [
            {name: value for name, value in vars(cls).items() if value is not None}
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
    # same byte-identity discipline for the arrival model and the tuner
    if spec.arrivals is not None:
        data["arrivals"] = _encode_tagged(spec.arrivals, "kind", _ARRIVALS)
    if spec.interval_tuner is not None:
        data["interval_tuner"] = dict(vars(spec.interval_tuner))
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
                    _decode_tagged(data["scenario"]["schedule"], "type", _SCHEDULES))
    displacement = None
    if data["displacement"] is not None:
        displacement = DisplacementPolicy(**{
            **data["displacement"],
            "criterion": VictimCriterion(data["displacement"]["criterion"])})
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
        arrivals=(_decode_tagged(data["arrivals"], "kind", _ARRIVALS)
                  if data.get("arrivals") else None),
        interval_tuner=(MeasurementIntervalTuner(**data["interval_tuner"])
                        if data.get("interval_tuner") else None),
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
    process boundaries, worker counts and hosts.  A spec the encoder
    refuses (see :func:`run_spec_to_jsonable`) raises its ``ValueError``.
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
