"""Scenario grids: the paper's evaluation grid by name.

Two builders make every grid of cells: :func:`stationary_sweep_spec` (one
stationary cell per controller variant and offered load) and
:func:`tracking_sweep_spec` (one tracking cell per controller variant).
:data:`SCENARIOS` maps each name (``cc_compare``, ``deadlock_resolution``,
``displacement_policies``, ``fig12_stationary``, ``fig13_is_jump``,
``fig14_pa_jump``, ``flash_crowd``, ``isolation_tradeoff``,
``mixed_classes``, ``open_diurnal``, ``probe_calibration``, ``sinusoid``,
``thrashing``) to a fixed row: a builder that takes only an
:class:`~repro.experiments.config.ExperimentScale` and optional base
:class:`~repro.tp.params.SystemParams` and returns the scenario's
:class:`~repro.runner.specs.SweepSpec`; each builder's docstring says what
its scenario shows.  Benchmarks, examples and ad-hoc scripts all obtain
their cells here, so "run Figure 12 at smoke scale with 4 workers and 5
replicates" is one call:

>>> from repro.runner import run_sweep
>>> result = run_sweep("fig12_stationary", workers=4, replicates=5)

Adding a scenario is one builder and one row of :data:`SCENARIOS`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.cc.registry import CCSpec
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.experiments.config import ExperimentScale, contention_bound_params, default_system_params
from repro.experiments.dynamic import jump_scenario, sinusoid_scenario
from repro.runner.specs import KIND_STATIONARY, KIND_TRACKING, ControllerSpec, RunSpec, SweepSpec
from repro.tp.arrivals import ArrivalProcess, OpenArrivals, PartlyOpenArrivals
from repro.tp.params import SystemParams
from repro.tp.workload import JumpSchedule, ParameterSchedule, SinusoidSchedule, TransactionClassSpec

#: (label, controller) pairs; a ``None`` controller runs uncontrolled
Variants = Sequence[Tuple[str, Optional[ControllerSpec]]]


def available_scenarios() -> Tuple[str, ...]:
    """All scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


def build_sweep(name: str, scale: Optional[ExperimentScale] = None,
                base_params: Optional[SystemParams] = None) -> SweepSpec:
    """Build the sweep of a named scenario (benchmark scale by default)."""
    builder = SCENARIOS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        )
    return builder(scale or ExperimentScale.benchmark(), base_params)


# ----------------------------------------------------------------------
# the two grid builders
# ----------------------------------------------------------------------
def stationary_sweep_spec(name: str, scale: ExperimentScale, base_params: SystemParams,
                          variants: Variants,
                          workload_classes: Optional[Sequence[TransactionClassSpec]] = None,
                          cc: Optional[CCSpec] = None,
                          observers: Sequence[str] = (),
                          arrivals=None) -> SweepSpec:
    """One stationary cell per variant and offered load, variant by variant.

    ``workload_classes`` puts every cell on a mixed-class workload (see
    :func:`~repro.experiments.stationary.run_stationary_point`), ``cc`` on
    a concurrency control scheme (``None`` = the default timestamp
    certification), and ``observers`` names every cell's observers (see
    :attr:`~repro.runner.specs.RunSpec.observers`).  ``arrivals`` selects
    the arrival model: an :class:`~repro.tp.arrivals.ArrivalProcess` shared
    by every cell, or a callable ``offered_load -> ArrivalProcess`` so open
    sweeps scale the arrival rate along the offered-load axis the way
    closed sweeps scale the terminal count.
    """
    classes = tuple(workload_classes) if workload_classes is not None else None
    cells = []
    for label, controller in variants:
        for load in map(int, scale.offered_loads):
            cells.append(RunSpec(
                kind=KIND_STATIONARY, cell_id=f"{name}/{label}/N={load}",
                params=base_params.with_changes(n_terminals=load), scale=scale,
                controller=controller, label=label, workload_classes=classes, cc=cc,
                observers=observers,
                arrivals=(arrivals if arrivals is None or isinstance(arrivals, ArrivalProcess)
                          else arrivals(load)),
            ))
    return SweepSpec(name=name, cells=tuple(cells))


def tracking_sweep_spec(name: str, scale: ExperimentScale, base_params: SystemParams,
                        variants: Variants,
                        scenario: Tuple[str, ParameterSchedule]) -> SweepSpec:
    """One tracking cell per variant, all on one workload ``scenario``
    (see :func:`~repro.experiments.dynamic.jump_scenario`)."""
    return SweepSpec(name=name, cells=tuple(
        RunSpec(kind=KIND_TRACKING, cell_id=f"{name}/{label}", params=base_params,
                scale=scale, controller=controller, scenario=scenario, label=label)
        for label, controller in variants
    ))


# ----------------------------------------------------------------------
# shared scenario shapes (the controller settings mirror the ones the
# corresponding benchmarks have always used; the stationary figures use the
# CONTROLLERS table's defaults as-is)
# ----------------------------------------------------------------------
def _tracking_is() -> ControllerSpec:
    return ControllerSpec.make("incremental_steps", initial_limit=30, beta=0.5,
                               gamma=8, delta=20, min_step=4.0, lower_bound=4)


def _tracking_pa() -> ControllerSpec:
    return ControllerSpec.make("parabola", initial_limit=30, forgetting=0.85,
                               probe_amplitude=6.0, max_move=40.0, lower_bound=4)


def _uncontrolled_and_is(prefix: str = "") -> Variants:
    return [(prefix + "without control", None),
            (prefix + "IS control", ControllerSpec.make("incremental_steps"))]


def _uncontrolled_is_pa() -> Variants:
    return _uncontrolled_and_is() + [("PA control", ControllerSpec.make("parabola"))]


def _jump_sweep(name: str, scale: ExperimentScale, base: SystemParams,
                variants: Variants) -> SweepSpec:
    """Tracking cells on the transaction-size jump 4 -> 16 at mid-horizon."""
    scenario = jump_scenario("accesses", 4, 16, jump_time=scale.tracking_horizon / 2.0)
    return tracking_sweep_spec(name, scale, base, variants, scenario)


def _scheme_comparison(name: str, scale: ExperimentScale, base: SystemParams,
                       schemes: Sequence[Tuple[str, CCSpec]],
                       observers: Sequence[str] = (), db_size: int = 1500) -> SweepSpec:
    """Each (label, scheme) without control and under IS control.

    The workload is tightened to ``db_size`` granules and write fraction
    0.6; an empty scheme label leaves the series labels unprefixed.
    """
    base = base.with_changes(workload=base.workload.with_changes(
        db_size=db_size, write_fraction=0.6))
    cells = []
    for scheme, cc in schemes:
        cells.extend(stationary_sweep_spec(name, scale, base,
                                           _uncontrolled_and_is(f"{scheme} " if scheme else ""),
                                           cc=cc, observers=observers).cells)
    return SweepSpec(name=name, cells=tuple(cells))


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------
def _thrashing(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Figure 1: the uncontrolled load/throughput curve (rise, saturation,
    thrashing).
    """
    return stationary_sweep_spec("thrashing", scale, base_params or default_system_params(),
                                 [("without control", None)])


def _fig12_stationary(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Figure 12: stationary throughput without control and under IS/PA
    control.
    """
    return stationary_sweep_spec("fig12_stationary", scale,
                                 base_params or default_system_params(),
                                 _uncontrolled_is_pa())


def _mixed_classes(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Mixed OLTP/query workload: two transaction classes with distinct
    size and write ratio, uncontrolled and under IS/PA control.

    The ROADMAP's "mixed OLTP/query classes" scenario.

    Small frequent updaters (the OLTP class) share the admission gate with
    long read-only queries; the class mix keeps the *expected* transaction
    size at the standard configuration's ``k = 8``
    (``0.75 * 4 + 0.25 * 20``), so the same offered-load grid applies while
    the per-class contention profile differs sharply from the single-class
    figures.
    """
    classes = (
        TransactionClassSpec(name="oltp", weight=0.75, accesses_per_txn=4,
                             write_fraction=0.6),
        TransactionClassSpec(name="long-query", weight=0.25, accesses_per_txn=20,
                             write_fraction=0.0),
    )
    return stationary_sweep_spec("mixed_classes", scale,
                                 base_params or default_system_params(seed=29),
                                 _uncontrolled_is_pa(), workload_classes=classes)


def _fig13_is_jump(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Figure 13: IS threshold trajectory under an abrupt transaction-size
    jump.
    """
    return _jump_sweep("fig13_is_jump", scale, base_params or contention_bound_params(seed=17),
                       [("IS", _tracking_is())])


def _fig14_pa_jump(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Figure 14: PA threshold trajectory on the Figure 13 jump, with the
    IS reference.
    """
    return _jump_sweep("fig14_pa_jump", scale, base_params or contention_bound_params(seed=17),
                       [("PA", _tracking_pa()), ("IS", _tracking_is())])


def _cc_compare(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Section 1's cross-scheme claim: 2PL vs OCC load/throughput curves,
    uncontrolled and under IS control, one labeled series per scheme.

    2PL vs OCC under identical workload, with and without load control.

    The paper simulates only the optimistic scheme but argues (Section 1)
    that adaptive load control applies to blocking schemes as well.  This
    scenario runs the same closed system under both CC schemes:
    the default configuration is tightened (smaller database, higher write
    fraction) so that *both* schemes exhibit the rise-then-fall curve
    within the standard offered-load grid — under the default parameters
    2PL merely saturates, because blocking wastes no work until deadlocks
    dominate.  Common random numbers across all four series: same seed,
    same workload streams, so curve differences are scheme effects.
    """
    return _scheme_comparison("cc_compare", scale, base_params or default_system_params(seed=41), [
        ("OCC", CCSpec.make("timestamp_cert")),
        ("2PL", CCSpec.make("two_phase_locking", victim_policy="youngest")),
    ])


def _deadlock_resolution(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """The locking family side by side: deadlock detection vs wound-wait vs
    wait-die on the cc_compare workload, uncontrolled and under IS
    control, with per-reason abort counts surfaced per cell.

    All three strict-2PL conflict resolutions over one contended workload.

    The schemes share every line of lock-table machinery
    (:class:`~repro.cc.two_phase_locking.LockingScheme`) and differ only in
    how a conflict is resolved, so curve differences are pure
    resolution-policy effects: the detector aborts waits-for-cycle victims
    (``deadlock`` aborts), wound-wait restarts younger lock owners
    (``wound``), wait-die restarts younger requesters (``die``).  Every
    cell runs the ``aborts_by_reason`` observer, so the per-reason abort
    counts — and the ``TayModel`` reference tag of the locking family —
    appear in the cell metrics and are pinned by the scenario's golden
    fixture.  The workload is ``cc_compare``'s (db tightened to 1500
    granules, write fraction 0.6) so all three variants rise-then-fall
    inside the standard offered-load grid; common random numbers across
    the six series make the comparison paired.
    """
    return _scheme_comparison(
        "deadlock_resolution", scale, base_params or default_system_params(seed=53), [
            ("detect", CCSpec.make("two_phase_locking", victim_policy="youngest")),
            ("wound-wait", CCSpec.make("wound_wait")),
            ("wait-die", CCSpec.make("wait_die")),
        ], observers=("aborts_by_reason",))


def _isolation_tradeoff(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """The isolation trade-off: strict 2PL vs backward OCC vs snapshot
    isolation on one contended workload, uncontrolled and under IS
    control, with per-kind anomaly counts surfaced per cell.

    What weakening the isolation level buys — and what it costs.

    Three schemes run the same closed system under common random numbers:
    strict 2PL and backward-validation OCC, which certify at
    ``serializable``, and multiversion snapshot isolation, which certifies
    only at ``snapshot_isolation``.  Every cell runs both the
    ``aborts_by_reason`` and the ``isolation`` observer, so the
    committed history of each run flows through the isolation oracle
    (:mod:`repro.cc.history`) and the per-kind ``anomalies_<kind>`` counts
    land in the cell metrics, pinned by the scenario's golden fixture.
    The workload is tightened (800 granules, write fraction 0.6) until SI
    actually exhibits write skew at every offered load of the standard
    grid while the serializable schemes stay anomaly-free — making the
    trade concrete: SI's non-blocking reads and first-committer-wins
    writes buy it markedly higher throughput deep in the contention
    regime, paid for in precisely those write-skew anomalies.
    """
    return _scheme_comparison(
        "isolation_tradeoff", scale, base_params or default_system_params(seed=61), [
            ("2PL", CCSpec.make("two_phase_locking", victim_policy="youngest")),
            ("OCC", CCSpec.make("timestamp_cert")),
            ("SI", CCSpec.make("snapshot_isolation")),
        ], observers=("aborts_by_reason", "isolation"), db_size=800)


def _probe_calibration(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """The observability loop closed: a contended 2PL sweep with every
    built-in probe on, whose measured lock-wait share calibrates the Tay
    reference.

    A probed 2PL sweep: the source data of Tay-model calibration.

    The ``cc_compare`` workload tightening (1500 granules, write fraction
    0.6) is reused so two-phase locking actually blocks — and therefore
    has a measurable waiting share — at the standard offered-load grid.
    Every cell opts into the six probes this scenario has always carried
    (the explicit tuple below, frozen rather than ``PROBE_NAMES`` so later
    probe additions — like the open-system ``arrival_backlog`` gauge —
    cannot silently widen this scenario's pinned metric schema) plus the
    ``aborts_by_reason`` observer, so the golden fixture pins the complete
    ``probe_<name>`` metric surface:
    lock-wait statistics, the measured waiting share that
    :func:`repro.obs.calibration.measured_wait_share`
    feeds into the Tay reference, queue-depth and MPL trajectories, and the
    per-reason abort rates.  Probes observe without perturbing, so the
    throughput columns of this scenario are exactly what an unprobed run
    of the same cells produces — a property the probe test suite asserts.
    """
    return _scheme_comparison(
        "probe_calibration", scale, base_params or default_system_params(seed=47),
        [("", CCSpec.make("two_phase_locking", victim_policy="youngest"))],
        observers=("lock_wait", "lock_queue", "admission_queue", "mpl",
                   "abort_rates", "displacement", "aborts_by_reason"))


def _displacement_policies(scale: ExperimentScale,
                           base_params: Optional[SystemParams]) -> SweepSpec:
    """Section 4.3: enforcing a threshold drop by displacement — one IS
    tracking run per victim-selection criterion on a downward jump of
    the optimum.

    Victim-criterion sweep over :class:`~repro.core.displacement.VictimCriterion`.

    Section 4.3's motivation is *responsiveness*: when the workload turns
    hostile, admission control alone can only wait for departures, while
    displacement enforces the lowered threshold immediately.  Here the
    transaction size jumps 4 -> 16 over a small database (500 granules),
    so the system the controller tuned during the first half (IS holding
    ~100 concurrent transactions) is suddenly deep in data-contention
    thrashing (``k^2 n / D`` jumps from ~3 to ~50).  With displacement the
    controller's downward probes take effect at once (every cell with a
    policy records a positive ``displaced`` count); without it the
    overloaded system can only drain by completions.  One cell runs pure
    admission control (``no displacement``) and one cell per victim
    criterion; all share seed and controller parameterisation, so the
    trajectories differ only in *which* transactions are sacrificed —
    the exact trajectories are pinned by the scenario's golden fixture.
    """
    base = base_params or contention_bound_params(seed=31)
    base = base.with_changes(workload=base.workload.with_changes(db_size=500))
    controller = ControllerSpec.make("incremental_steps", initial_limit=100,
                                     beta=0.5, gamma=8, delta=20, min_step=4.0,
                                     lower_bound=4)
    policies = [("no displacement", None)] + [
        (criterion.value, DisplacementPolicy(criterion, hysteresis=1.0))
        for criterion in VictimCriterion
    ]
    sweep = _jump_sweep("displacement_policies", scale, base,
                        [(label, controller) for label, _ in policies])
    return SweepSpec(name=sweep.name, cells=tuple(
        replace(cell, displacement=policy)
        for cell, (_, policy) in zip(sweep.cells, policies)
    ))


def _sinusoid(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Section 9: IS and PA tracking a sinusoidal transaction-size
    variation.
    """
    scenario = sinusoid_scenario("accesses", mean=10.0, amplitude=6.0,
                                 period=scale.tracking_horizon / 2.0)
    return tracking_sweep_spec("sinusoid", scale, base_params or contention_bound_params(seed=23), [
        ("IS", ControllerSpec.make("incremental_steps", initial_limit=40, beta=0.5,
                                   gamma=8, delta=20, min_step=4.0, lower_bound=4)),
        ("PA", ControllerSpec.make("parabola", initial_limit=40, forgetting=0.85,
                                   probe_amplitude=6.0, max_move=40.0, lower_bound=4)),
    ], scenario)


def _open_diurnal(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Open-system arrivals: a diurnal (sinusoid) Poisson arrival rate over
    the IS-controlled 2PL system, with response-time tail percentiles
    per cell.

    The diurnal open-system sweep: arrival rate replaces the terminal count.

    Every cell runs the :class:`~repro.tp.arrivals.OpenArrivals` source —
    transactions arrive in a nonhomogeneous Poisson stream whose rate
    follows a sinusoid ("daily" load swings compressed into the simulated
    horizon) — instead of the closed terminal loop.  The offered-load axis
    scales the *mean arrival rate* (0.25 transactions per simulated second
    per offered-load unit) the way the closed sweeps scale the terminal
    count, so the familiar grid now spans under-load
    through sustained overload: past the saturation point the backlog
    grows through each diurnal peak and the tail percentiles — pinned per
    cell as ``p95_response_time``/``p99_response_time`` — separate sharply
    from the mean.  The concurrency-control scheme is blocking 2PL under
    IS control (with the uncontrolled series as the reference), and every
    cell carries the ``arrival_backlog`` probe, whose growth-vs-bounded
    trajectory is exactly the open-system thrashing signature.
    """
    period = scale.stationary_horizon / 2.0

    def diurnal(offered_load: int) -> OpenArrivals:
        mean = 0.25 * offered_load
        return OpenArrivals(SinusoidSchedule(mean=mean, amplitude=0.6 * mean, period=period))

    return stationary_sweep_spec("open_diurnal", scale,
                                 base_params or default_system_params(seed=67),
                                 _uncontrolled_and_is(),
                                 cc=CCSpec.make("two_phase_locking", victim_policy="youngest"),
                                 observers=("arrival_backlog",), arrivals=diurnal)


def _flash_crowd(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    """Partly-open flash crowd: a session arrival-rate jump against two
    tenants with admission/queue quotas — load control must shed the
    bursting tenant while the steady tenant keeps its SLO.

    Two tenants, one flash crowd, and the quota machinery between them.

    The arrival source is :class:`~repro.tp.arrivals.PartlyOpenArrivals`:
    *sessions* arrive in a Poisson stream and each issues a bounded-Pareto
    number of transactions with a short think time in between — the
    partly-open middle ground that models real front-ends better than
    either pure closed or pure open.  Midway through the measured window
    the session arrival rate jumps 3.5-fold (the flash crowd).
    Two transaction classes act as tenants: ``steady`` (25 % of
    submissions, no quotas — it is never busy-signaled, at any scale) and
    ``burst`` (75 % of submissions, tight admission *and* queue quotas).
    When the crowd hits, the gate's per-tenant quotas make the admission
    decision discriminating: ``burst`` arrivals beyond quota are shed
    outright (``tenant_shed_burst``) while ``steady`` keeps flowing, so
    the steady tenant's pinned ``tenant_p95_response_time_steady`` stays
    within SLO as the burst tenant's tail blows out — the per-tenant
    assertion the golden suite makes on this scenario.  IS control runs
    against the uncontrolled reference under common random numbers.
    """
    classes = (
        TransactionClassSpec(name="steady", weight=0.25, accesses_per_txn=8,
                             write_fraction=0.3),
        TransactionClassSpec(name="burst", weight=0.75, accesses_per_txn=8,
                             write_fraction=0.3, admission_quota=6, queue_quota=6),
    )
    jump_time = scale.warmup + scale.stationary_horizon / 2.0

    def crowd(offered_load: int) -> PartlyOpenArrivals:
        before = 0.10 * offered_load
        return PartlyOpenArrivals(
            JumpSchedule(before=before, after=3.5 * before, jump_time=jump_time),
            session_alpha=1.5, min_session=1, max_session=20,
            session_think_time=0.05)

    return stationary_sweep_spec("flash_crowd", scale,
                                 base_params or default_system_params(seed=71),
                                 _uncontrolled_and_is(), workload_classes=classes,
                                 arrivals=crowd)


#: scenario name -> builder(scale, base_params)
SCENARIOS = {
    "cc_compare": _cc_compare,
    "deadlock_resolution": _deadlock_resolution,
    "displacement_policies": _displacement_policies,
    "fig12_stationary": _fig12_stationary,
    "fig13_is_jump": _fig13_is_jump,
    "fig14_pa_jump": _fig14_pa_jump,
    "flash_crowd": _flash_crowd,
    "isolation_tradeoff": _isolation_tradeoff,
    "mixed_classes": _mixed_classes,
    "open_diurnal": _open_diurnal,
    "probe_calibration": _probe_calibration,
    "sinusoid": _sinusoid,
    "thrashing": _thrashing,
}
