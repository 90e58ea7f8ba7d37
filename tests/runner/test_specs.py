"""Tests for the runner's picklable experiment descriptors."""

import json
import pickle

import pytest

from repro.cc.registry import CCSpec
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.core.incremental_steps import IncrementalStepsController
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.parabola import ParabolaController
from repro.core.rules import TayRule
from repro.core.static import FixedLimit, NoControl
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario
from repro.runner.specs import (
    KIND_STATIONARY,
    CONTROLLERS,
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    SweepSpec,
    controller_kinds,
    run_spec_fingerprint,
    run_spec_from_jsonable,
    run_spec_to_jsonable,
)
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    SinusoidSchedule,
    StepSchedule,
    TransactionClassSpec,
)


def _stationary_spec(**overrides):
    settings = dict(
        kind=KIND_STATIONARY,
        cell_id="test/cell/N=50",
        params=default_system_params().with_changes(n_terminals=50),
        scale=ExperimentScale.smoke(),
        controller=None,
        label="test",
    )
    settings.update(overrides)
    return RunSpec(**settings)


class TestControllerSpec:
    def test_make_sorts_options(self):
        first = ControllerSpec.make("parabola", forgetting=0.9, initial_limit=10)
        second = ControllerSpec.make("parabola", initial_limit=10, forgetting=0.9)
        assert first == second
        assert hash(first) == hash(second)

    def test_build_constructs_controller(self):
        params = default_system_params().with_changes(n_terminals=123)
        spec = ControllerSpec.make("parabola", initial_limit=15)
        controller = spec.build(params)
        assert isinstance(controller, ParabolaController)
        assert controller.current_limit == 15
        # bounds default to the cell's offered load
        assert controller.upper_bound == 123

    def test_build_returns_fresh_instances(self):
        params = default_system_params()
        spec = ControllerSpec.make("incremental_steps")
        assert spec.build(params) is not spec.build(params)
        assert isinstance(spec.build(params), IncrementalStepsController)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown controller kind"):
            ControllerSpec.make("nonsense").build(default_system_params())

    def test_registry_contains_all_section1_policies(self):
        kinds = controller_kinds()
        for kind in ("no_control", "fixed", "tay", "iyer",
                     "incremental_steps", "parabola"):
            assert kind in kinds

    @pytest.mark.parametrize("kind", sorted(CONTROLLERS))
    def test_every_controller_kind_builds_at_default_params(self, kind):
        params = default_system_params()
        controller_class, _defaults = CONTROLLERS[kind]
        controller = ControllerSpec.make(kind).build(params)
        assert type(controller) is controller_class
        assert controller.upper_bound == params.n_terminals

    def test_tay_takes_its_workload_from_the_cell(self):
        params = default_system_params()
        workload = params.workload.with_changes(db_size=900, accesses_per_txn=6)
        params = params.with_changes(workload=workload)
        default = ControllerSpec.make("tay").build(params)
        explicit = TayRule(db_size=900, accesses_per_txn=6,
                           upper_bound=params.n_terminals)
        assert default.current_limit == explicit.current_limit
        overridden = ControllerSpec.make("tay", db_size=4000).build(params)
        assert overridden.current_limit != default.current_limit

    def test_static_kinds(self):
        params = default_system_params()
        assert isinstance(ControllerSpec.make("no_control").build(params), NoControl)
        fixed = ControllerSpec.make("fixed", limit=33).build(params)
        assert isinstance(fixed, FixedLimit)
        assert fixed.limit == 33

    def test_specs_are_picklable(self):
        spec = ControllerSpec.make("parabola", initial_limit=10)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRunSpec:
    def test_tracking_requires_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            _stationary_spec(kind=KIND_TRACKING,
                             controller=ControllerSpec.make("parabola"))

    def test_tracking_requires_controller(self):
        scenario = jump_scenario("accesses", 4, 8, jump_time=10.0)
        with pytest.raises(ValueError, match="controller"):
            _stationary_spec(kind=KIND_TRACKING, scenario=scenario)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _stationary_spec(kind="warp")

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicate"):
            _stationary_spec(replicate=-1)

    def test_build_controller(self):
        assert _stationary_spec(controller=None).build_controller() is None
        spec_controller = _stationary_spec(controller=ControllerSpec.make("parabola"))
        assert isinstance(spec_controller.build_controller(), ParabolaController)

    @pytest.mark.parametrize("field,value", [
        ("scenario", jump_scenario("accesses", 4, 8, jump_time=10.0)),
        ("displacement", DisplacementPolicy()),
        ("interval_tuner", MeasurementIntervalTuner(target_departures=150)),
    ], ids=["scenario", "displacement", "interval_tuner"])
    def test_tracking_only_fields_rejected_on_stationary_cells(self, field, value):
        # a stationary run ignores these fields, so accepting them would
        # file one result under several cache keys
        with pytest.raises(ValueError, match="tracking runs only"):
            _stationary_spec(**{field: value})

    def test_tracking_scenario_must_name_a_varied_parameter(self):
        """Regression: a misspelt parameter ran as a write-fraction scenario."""
        with pytest.raises(ValueError, match="acesses"):
            _stationary_spec(kind=KIND_TRACKING,
                             scenario=("acesses", SinusoidSchedule(10, 6, 6)),
                             controller=ControllerSpec.make("parabola"))

    def test_run_spec_is_picklable(self):
        scenario = jump_scenario("accesses", 4, 8, jump_time=10.0)
        spec = _stationary_spec(kind=KIND_TRACKING, scenario=scenario,
                                controller=ControllerSpec.make("parabola"))
        restored = pickle.loads(pickle.dumps(spec))
        assert restored.cell_id == spec.cell_id
        assert restored.scenario[0] == "accesses"
        assert restored.scenario[1](20.0) == 8


class TestSweepSpec:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            SweepSpec(name="empty", cells=())

    def test_with_replicates_expands_in_order(self):
        sweep = SweepSpec(name="s", cells=(_stationary_spec(),))
        expanded = sweep.with_replicates(3)
        assert len(expanded) == 3
        assert [cell.replicate for cell in expanded.cells] == [0, 1, 2]
        assert expanded.cell_ids() == sweep.cell_ids()

    def test_with_replicates_one_is_identity(self):
        sweep = SweepSpec(name="s", cells=(_stationary_spec(),))
        assert sweep.with_replicates(1) is sweep

    def test_hand_expanded_sweep_passes_through_replicates_one(self):
        # a sweep built with explicit replicate indices is legal input to
        # run_sweep's default replicates=1 path
        sweep = SweepSpec(name="s", cells=(
            _stationary_spec(replicate=0), _stationary_spec(replicate=1)))
        assert sweep.with_replicates(1) is sweep

    def test_double_expansion_rejected(self):
        sweep = SweepSpec(name="s", cells=(_stationary_spec(),)).with_replicates(2)
        with pytest.raises(ValueError, match="already been expanded"):
            sweep.with_replicates(2)

    def test_duplicate_cell_ids_rejected(self):
        # two different cells sharing an id would be pooled into one
        # aggregate downstream, silently mixing unrelated samples
        with pytest.raises(ValueError, match="duplicate cell"):
            SweepSpec(name="s", cells=(_stationary_spec(), _stationary_spec()))


class TestRunSpecJsonRoundTrip:
    def _tracking_spec(self, **overrides):
        parameter, schedule = jump_scenario(
            parameter="accesses", before=8, after=16, jump_time=10.0)
        settings = dict(
            kind=KIND_TRACKING,
            cell_id="test/tracking/jump",
            params=default_system_params(),
            scale=ExperimentScale.smoke(),
            controller=ControllerSpec.make("incremental_steps", beta=1.5),
            scenario=(parameter, schedule),
            label="tracking",
        )
        settings.update(overrides)
        return RunSpec(**settings)

    def test_stationary_spec_round_trips_exactly(self):
        spec = _stationary_spec(
            controller=ControllerSpec.make("parabola", forgetting=0.8))
        clone = run_spec_from_jsonable(run_spec_to_jsonable(spec))
        assert clone == spec

    def test_tracking_spec_round_trips_exactly(self):
        spec = self._tracking_spec()
        clone = run_spec_from_jsonable(run_spec_to_jsonable(spec))
        assert clone == spec

    def test_every_schedule_type_round_trips(self):
        schedules = (
            ConstantSchedule(8.0),
            JumpSchedule(before=4, after=20, jump_time=12.5),
            StepSchedule(initial=8, steps=[(5.0, 16.0), (10.0, 4.0)]),
            SinusoidSchedule(mean=10.0, amplitude=4.0, period=30.0, phase=2.0),
        )
        for schedule in schedules:
            spec = self._tracking_spec(scenario=("accesses", schedule))
            clone = run_spec_from_jsonable(run_spec_to_jsonable(spec))
            assert clone.scenario[1] == schedule, type(schedule).__name__

    def test_rich_spec_round_trips_exactly(self):
        stationary = _stationary_spec(
            controller=ControllerSpec.make("incremental_steps"),
            workload_classes=(
                TransactionClassSpec(name="oltp", weight=3.0,
                                     accesses_per_txn=4, write_fraction=0.6),
                TransactionClassSpec(name="query", weight=1.0,
                                     accesses_per_txn=20),
            ),
            cc=CCSpec.make("occ_forward"),
            observers=("aborts_by_reason", "isolation"),
            replicate=2,
        )
        tracking = self._tracking_spec(
            displacement=DisplacementPolicy(
                criterion=VictimCriterion.QUERIES_FIRST, hysteresis=2.0),
            interval_tuner=MeasurementIntervalTuner(
                target_departures=None, relative_accuracy=0.2, confidence=0.9,
                min_interval=0.25, max_interval=8.0, smoothing=0.75),
            cc=CCSpec.make("two_phase_locking", victim_policy="oldest"),
            observers=("trace",),
        )
        for spec in (stationary, tracking):
            encoded = run_spec_to_jsonable(spec)
            # the encoding itself must be pure JSON: a dump/load cycle is lossless
            decoded = json.loads(json.dumps(encoded))
            clone = run_spec_from_jsonable(decoded)
            assert clone == spec

    def test_encoding_is_json_serialisable_and_stable(self):
        spec = self._tracking_spec()
        first = json.dumps(run_spec_to_jsonable(spec), sort_keys=True)
        second = json.dumps(run_spec_to_jsonable(spec), sort_keys=True)
        assert first == second

    def test_non_scalar_option_rejected(self):
        spec = _stationary_spec(
            controller=ControllerSpec.make("fixed", limit=[1, 2]))
        with pytest.raises(ValueError, match="JSON scalar"):
            run_spec_to_jsonable(spec)

    def test_unknown_format_rejected(self):
        encoded = run_spec_to_jsonable(_stationary_spec())
        encoded["format"] = 999
        with pytest.raises(ValueError, match="format"):
            run_spec_from_jsonable(encoded)

    def test_int_arguments_encode_like_floats(self):
        """Every value stores its fields with the constructors' types, so
        an int passed for a float field changes no fingerprint."""
        from repro.tp.arrivals import PartlyOpenArrivals

        pairs = (
            (dict(scenario=("accesses", StepSchedule(8, [(5, 16)]))),
             dict(scenario=("accesses", StepSchedule(8.0, [(5.0, 16.0)])))),
            (dict(displacement=DisplacementPolicy(hysteresis=1)),
             dict(displacement=DisplacementPolicy(hysteresis=1.0))),
            (dict(interval_tuner=MeasurementIntervalTuner(min_interval=1, max_interval=8)),
             dict(interval_tuner=MeasurementIntervalTuner(min_interval=1.0, max_interval=8.0))),
        )
        for ints, floats in pairs:
            assert (run_spec_fingerprint(self._tracking_spec(**ints))
                    == run_spec_fingerprint(self._tracking_spec(**floats)))
        assert (run_spec_fingerprint(_stationary_spec(
                    arrivals=PartlyOpenArrivals(5, session_alpha=2, min_session=1.0)))
                == run_spec_fingerprint(_stationary_spec(
                    arrivals=PartlyOpenArrivals(5.0, session_alpha=2.0, min_session=1))))

    def test_subclasses_outside_the_tag_tables_are_not_encoded(self):
        """A subclass would decode as its base class, so it is refused."""
        from dataclasses import dataclass

        from repro.tp.arrivals import OpenArrivals

        @dataclass(frozen=True)
        class Doubled(ConstantSchedule):
            def __call__(self, time):
                return 2.0 * self.value

        @dataclass(frozen=True)
        class Bursty(OpenArrivals):
            pass

        with pytest.raises(ValueError, match="Doubled has no JSON encoding"):
            run_spec_to_jsonable(self._tracking_spec(scenario=("accesses", Doubled(4))))
        with pytest.raises(ValueError, match="Bursty has no JSON encoding"):
            run_spec_to_jsonable(_stationary_spec(arrivals=Bursty(5.0)))

    def test_unknown_varied_parameter_rejected(self):
        encoded = run_spec_to_jsonable(self._tracking_spec())
        encoded["scenario"]["parameter"] = "acesses"
        with pytest.raises(ValueError, match="acesses"):
            run_spec_from_jsonable(encoded)

    def test_unknown_schedule_type_rejected(self):
        encoded = run_spec_to_jsonable(self._tracking_spec())
        encoded["scenario"]["schedule"]["type"] = "sawtooth"
        with pytest.raises(ValueError, match="sawtooth"):
            run_spec_from_jsonable(encoded)


class TestArrivalsOnRunSpec:
    def _arrival_variants(self):
        from repro.tp.arrivals import OpenArrivals, PartlyOpenArrivals

        return (
            OpenArrivals(12.0),
            OpenArrivals(SinusoidSchedule(mean=10.0, amplitude=6.0, period=4.0)),
            PartlyOpenArrivals(JumpSchedule(before=5.0, after=20.0, jump_time=6.0),
                               session_alpha=1.5, min_session=1, max_session=20,
                               session_think_time=0.05),
        )

    def test_every_arrival_kind_round_trips_exactly(self):
        for arrivals in self._arrival_variants():
            spec = _stationary_spec(arrivals=arrivals)
            encoded = json.loads(json.dumps(run_spec_to_jsonable(spec)))
            clone = run_spec_from_jsonable(encoded)
            assert clone == spec, type(arrivals).__name__
            assert clone.arrivals == arrivals

    def test_encoder_omits_the_key_when_arrivals_are_closed_by_default(self):
        """Pre-arrivals archives (and the fuzz corpus) must stay
        byte-identical, so the field only appears when set."""
        data = run_spec_to_jsonable(_stationary_spec())
        assert "arrivals" not in data

    def test_decoder_tolerates_archives_predating_arrivals(self):
        data = run_spec_to_jsonable(_stationary_spec())
        assert run_spec_from_jsonable(data).arrivals is None

    def test_unknown_arrival_kind_rejected(self):
        from repro.tp.arrivals import OpenArrivals

        encoded = run_spec_to_jsonable(_stationary_spec(arrivals=OpenArrivals(5.0)))
        encoded["arrivals"]["kind"] = "teleport"
        with pytest.raises(ValueError, match="teleport"):
            run_spec_from_jsonable(encoded)

    def test_arrivals_are_stationary_only(self):
        from repro.tp.arrivals import OpenArrivals

        parameter, schedule = jump_scenario(
            parameter="accesses", before=8, after=16, jump_time=10.0)
        with pytest.raises(ValueError, match="stationary"):
            RunSpec(
                kind=KIND_TRACKING,
                cell_id="test/tracking/open",
                params=default_system_params(),
                scale=ExperimentScale.smoke(),
                controller=ControllerSpec.make("incremental_steps"),
                scenario=(parameter, schedule),
                arrivals=OpenArrivals(5.0),
            )

    def test_workload_class_quotas_round_trip(self):
        from repro.tp.arrivals import OpenArrivals

        spec = _stationary_spec(
            arrivals=OpenArrivals(12.0),
            workload_classes=(
                TransactionClassSpec(name="steady", weight=1.0,
                                     accesses_per_txn=8, write_fraction=0.3,
                                     queue_quota=40),
                TransactionClassSpec(name="burst", weight=3.0,
                                     accesses_per_txn=8, write_fraction=0.3,
                                     admission_quota=6, queue_quota=6),
            ),
        )
        encoded = json.loads(json.dumps(run_spec_to_jsonable(spec)))
        assert run_spec_from_jsonable(encoded) == spec

    @pytest.mark.parametrize("quota", ["admission_quota", "queue_quota"])
    def test_tenant_quotas_need_an_arrival_model(self, quota):
        """Regression: a closed cell ran with its classes' quotas ignored."""
        from repro.tp.arrivals import OpenArrivals

        classes = (TransactionClassSpec(name="burst", weight=1.0, accesses_per_txn=8,
                                        write_fraction=0.3, **{quota: 6}),)
        with pytest.raises(ValueError, match="arrival model"):
            _stationary_spec(workload_classes=classes)
        spec = _stationary_spec(workload_classes=classes, arrivals=OpenArrivals(12.0))
        assert spec.workload_classes == classes

    def test_quota_free_classes_encode_without_quota_keys(self):
        spec = _stationary_spec(
            workload_classes=(
                TransactionClassSpec(name="oltp", weight=1.0,
                                     accesses_per_txn=4),
            ),
        )
        [encoded_class] = run_spec_to_jsonable(spec)["workload_classes"]
        assert "admission_quota" not in encoded_class
        assert "queue_quota" not in encoded_class

    def test_arrival_spec_is_picklable(self):
        for arrivals in self._arrival_variants():
            spec = _stationary_spec(arrivals=arrivals)
            assert pickle.loads(pickle.dumps(spec)) == spec
