"""The observer contract, checked over the whole catalog.

Every named observer of :mod:`repro.obs.catalog` must

* leave the cell it watches bit-identical: commits, aborts by reason,
  throughput, response time and concurrency of an observed cell equal
  those of the unobserved cell;
* read out exactly its declared schema, even when it observed nothing;
* extend the cell metrics by exactly its schema, so a cell's metric keys
  are the base keys plus the union of its observers' schemas.

The cell is contended strict 2PL, so lock waits, lock queues and
deadlock aborts all occur and every observer has something to see.  The
contract is also checked under snapshot isolation, the one scheme whose
reads the ``isolation`` recorder asks for the version served.
"""

import dataclasses
import pickle

import pytest

from repro.cc.registry import CCSpec
from repro.experiments.config import ExperimentScale
from repro.experiments.dynamic import jump_scenario
from repro.obs.catalog import (
    CATALOG,
    HOOKS,
    OBSERVER_NAMES,
    ObserverSet,
    metric_schema,
    validate_observers,
)
from repro.obs.probes import PROBE_NAMES
from repro.runner.cells import execute_run_spec
from repro.runner.specs import (
    ControllerSpec,
    RunSpec,
    run_spec_fingerprint,
    run_spec_from_jsonable,
    run_spec_to_jsonable,
)
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem

#: the metrics every stationary closed cell reports, observed or not
BASE_KEYS = {"throughput", "mean_response_time", "restart_ratio", "mean_concurrency",
             "cpu_utilisation", "commits", "final_limit"}


def contended_params():
    return SystemParams(
        n_terminals=40, think_time=0.0, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, restart_delay=0.005, seed=11,
        workload=WorkloadParams(db_size=150, accesses_per_txn=6,
                                query_fraction=0.1, write_fraction=0.8))


#: the contract's schemes: single-version locking and multiversion snapshots
SCHEMES = {
    "two_phase_locking": CCSpec.make("two_phase_locking", victim_policy="youngest"),
    "snapshot_isolation": CCSpec.make("snapshot_isolation"),
}


def cell(observers=(), **overrides) -> RunSpec:
    settings = dict(
        kind="stationary",
        cell_id="contract/N=40",
        params=contended_params(),
        scale=ExperimentScale(stationary_horizon=6.0, warmup=2.0, offered_loads=(40,),
                              tracking_horizon=12.0, measurement_interval=1.0,
                              synthetic_steps=30),
        controller=ControllerSpec.make("incremental_steps"),
        cc=SCHEMES["two_phase_locking"],
        observers=observers,
    )
    settings.update(overrides)
    return RunSpec(**settings)


@pytest.fixture(scope="module")
def unobserved_by_scheme():
    return {scheme: execute_run_spec(cell(cc=cc)) for scheme, cc in SCHEMES.items()}


@pytest.fixture(scope="module")
def unobserved(unobserved_by_scheme):
    return unobserved_by_scheme["two_phase_locking"]


@pytest.fixture(scope="module")
def fully_observed():
    return execute_run_spec(cell(OBSERVER_NAMES))


class TestCatalog:
    def test_catalog_order_and_names(self):
        assert OBSERVER_NAMES == ("trace",) + PROBE_NAMES + ("aborts_by_reason", "isolation")
        for name, observer in CATALOG.items():
            assert observer.name == name
            assert set(observer.hooks) <= set(HOOKS), name
            for hook in observer.hooks:
                assert callable(getattr(observer, hook)), (name, hook)

    def test_selection_is_a_set_normalised_to_catalog_order(self):
        assert validate_observers(["isolation", "mpl", "trace"]) == ("trace", "mpl", "isolation")
        assert validate_observers(()) == ()

    def test_rejects_unknown_and_duplicate_names(self):
        with pytest.raises(ValueError, match="unknown observer 'latency'"):
            validate_observers(["latency"])
        with pytest.raises(ValueError, match="duplicate observer"):
            validate_observers(["mpl", "mpl"])

    def test_only_trace_reaches_tracking_runs(self):
        assert validate_observers(["trace"], stationary=False) == ("trace",)
        for name in OBSERVER_NAMES[1:]:
            with pytest.raises(ValueError, match="stationary runs only"):
                validate_observers([name], stationary=False)


class TestContract:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", OBSERVER_NAMES)
    def test_observing_leaves_the_cell_bit_identical(self, name, scheme, unobserved_by_scheme):
        unobserved = unobserved_by_scheme[scheme]
        observed = execute_run_spec(cell((name,), cc=SCHEMES[scheme]))
        for key in BASE_KEYS:
            assert observed.metrics[key] == unobserved.metrics[key], (name, key)
        assert observed.payload.aborts_by_reason == unobserved.payload.aborts_by_reason
        # the cell metrics are the base keys plus exactly the declared schema
        assert set(observed.metrics) == BASE_KEYS | set(CATALOG[name].schema)
        assert set(observed.payload.observed) == set(CATALOG[name].schema)
        assert all(isinstance(value, float) for value in observed.payload.observed.values())
        assert bool(observed.trace) == (name == "trace")
        assert bool(observed.model_reference) == (name == "aborts_by_reason")

    @pytest.mark.parametrize("name", OBSERVER_NAMES)
    def test_readout_is_the_schema_even_when_nothing_was_observed(self, name):
        observers = ObserverSet([name])
        system = TransactionSystem(contended_params(), observers=observers)
        readout = observers.readout(system.sim.now)
        assert list(readout) == list(CATALOG[name].schema)
        assert all(isinstance(value, float) for value in readout.values())

    def test_cell_schema_is_the_union_of_the_observers_schemas(self, unobserved,
                                                               fully_observed):
        assert set(unobserved.metrics) == BASE_KEYS
        assert unobserved.model_reference == "" and unobserved.trace == ()
        assert list(fully_observed.payload.observed) == list(metric_schema(OBSERVER_NAMES))
        assert set(fully_observed.metrics) == BASE_KEYS | set(metric_schema(OBSERVER_NAMES))
        for key in BASE_KEYS:
            assert fully_observed.metrics[key] == unobserved.metrics[key], key

    def test_every_observer_saw_the_contended_cell(self, fully_observed):
        metrics = fully_observed.metrics
        assert metrics["probe_lock_wait_count"] > 0
        assert 0.0 < metrics["probe_lock_wait_share"] <= 1.0
        assert metrics["probe_lock_queue_max"] > 0
        assert metrics["probe_mpl_mean"] > 0
        assert metrics["aborts_deadlock"] > 0
        assert metrics["probe_abort_rate_deadlock"] > 0
        assert fully_observed.model_reference == "TayModel"
        assert len(fully_observed.trace) > metrics["commits"]

    def test_the_recorder_saw_the_snapshot_reads(self):
        # write skew needs the versions the snapshot reads were served
        observed = execute_run_spec(cell(("isolation",), cc=SCHEMES["snapshot_isolation"]))
        assert observed.metrics["anomalies_write_skew"] > 0


class TestObserverSet:
    def test_empty_set_leaves_the_system_slot_empty(self):
        system = TransactionSystem(contended_params(), observers=ObserverSet(()))
        assert system._observer is None

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            ObserverSet(PROBE_NAMES, interval=0.0)

    def test_unbound_set_refuses_readout(self):
        with pytest.raises(RuntimeError, match="not bound"):
            ObserverSet(OBSERVER_NAMES).readout(1.0)
        assert ObserverSet(()).readout(1.0) == {}

    def test_binds_to_one_system_only(self):
        observers = ObserverSet(OBSERVER_NAMES)
        TransactionSystem(contended_params(), observers=observers)
        with pytest.raises(RuntimeError, match="only one system"):
            TransactionSystem(contended_params(), observers=observers)

    def test_sampler_runs_only_for_sampling_observers(self):
        assert ObserverSet(["mpl"]).samples
        assert ObserverSet(["lock_queue", "admission_queue"]).samples
        assert not ObserverSet(["trace", "lock_wait", "abort_rates", "displacement",
                                "aborts_by_reason", "isolation"]).samples


class TestSpecBorne:
    def test_order_of_a_selection_does_not_change_the_spec_or_its_key(self):
        one = cell(("mpl", "lock_wait"))
        other = cell(("lock_wait", "mpl"))
        assert one == other and one.observers == ("lock_wait", "mpl")
        assert run_spec_fingerprint(one) == run_spec_fingerprint(other)

    def test_tracking_cells_accept_only_the_trace(self):
        tracking = dict(kind="tracking", scenario=jump_scenario("accesses", 4, 16, jump_time=5.0))
        assert cell(("trace",), **tracking).observers == ("trace",)
        with pytest.raises(ValueError, match="stationary runs only"):
            cell(("mpl",), **tracking)

    def test_every_selection_survives_pickle_and_json(self):
        for observers in [(), OBSERVER_NAMES] + [(name,) for name in OBSERVER_NAMES]:
            spec = cell(observers)
            assert pickle.loads(pickle.dumps(spec)) == spec
            assert run_spec_from_jsonable(run_spec_to_jsonable(spec)) == spec

    def test_wire_names_are_the_pre_catalog_fields(self):
        plain = run_spec_to_jsonable(cell())
        assert plain["scheme_diagnostics"] is False
        assert plain["isolation_diagnostics"] is False
        assert "probes" not in plain and "trace" not in plain
        full = run_spec_to_jsonable(cell(OBSERVER_NAMES))
        assert full["scheme_diagnostics"] is True
        assert full["isolation_diagnostics"] is True
        assert full["probes"] == list(PROBE_NAMES)
        assert full["trace"] is True

    def test_tracing_a_cell_changes_its_key(self):
        spec = cell()
        traced = dataclasses.replace(spec, observers=("trace",))
        assert run_spec_fingerprint(traced) != run_spec_fingerprint(spec)
