"""Probes on RunSpec: validation, pickling, and byte-stable JSON encoding.

Probes ride the spec as observer names (:attr:`RunSpec.observers`) and keep
their pre-catalog wire name, ``probes``, emitted only when a probe is on.
"""

import pickle

import pytest

from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario
from repro.obs.probes import PROBE_NAMES
from repro.runner import stationary_sweep_spec
from repro.runner.specs import (
    ControllerSpec,
    RunSpec,
    run_spec_from_jsonable,
    run_spec_to_jsonable,
)


def stationary_spec(**overrides) -> RunSpec:
    settings = dict(
        kind="stationary",
        cell_id="probe-spec/N=25",
        params=default_system_params(seed=47),
        scale=ExperimentScale.smoke(),
        observers=PROBE_NAMES,
    )
    settings.update(overrides)
    return RunSpec(**settings)


class TestSpecValidation:
    def test_probe_names_are_validated_at_construction(self):
        with pytest.raises(ValueError, match="unknown observer"):
            stationary_spec(observers=("no_such_probe",))

    def test_probes_are_normalised_to_a_tuple_in_catalog_order(self):
        spec = stationary_spec(observers=["mpl", "lock_wait"])
        assert spec.observers == ("lock_wait", "mpl")

    def test_tracking_runs_reject_probes(self):
        with pytest.raises(ValueError, match="stationary runs only"):
            stationary_spec(
                kind="tracking",
                controller=ControllerSpec.make("incremental_steps"),
                scenario=jump_scenario("accesses", 4, 16, jump_time=5.0),
            )

    def test_specs_without_probes_stay_valid(self):
        assert stationary_spec(observers=()).observers == ()


class TestPickleRoundTrip:
    def test_probed_spec_survives_pickling(self):
        spec = stationary_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestJsonRoundTrip:
    def test_probed_spec_round_trips_bit_identically(self):
        spec = stationary_spec()
        assert run_spec_from_jsonable(run_spec_to_jsonable(spec)) == spec

    def test_encoder_omits_the_key_when_probes_are_off(self):
        """Pre-probes archives (and the committed fuzz corpus) must stay
        byte-identical, so the field only appears when set."""
        data = run_spec_to_jsonable(stationary_spec(observers=()))
        assert "probes" not in data

    def test_encoder_emits_plain_names_when_probes_are_on(self):
        data = run_spec_to_jsonable(stationary_spec())
        assert data["probes"] == list(PROBE_NAMES)

    def test_decoder_tolerates_archives_predating_probes(self):
        data = run_spec_to_jsonable(stationary_spec(observers=()))
        assert run_spec_from_jsonable(data).observers == ()


class TestSweepBuilder:
    def test_stationary_sweep_spec_threads_probes_to_every_cell(self):
        sweep = stationary_sweep_spec(
            "probe-sweep", ExperimentScale.smoke(), default_system_params(seed=47),
            [("probed", None)], observers=("lock_wait", "mpl"),
        )
        assert all(cell.observers == ("lock_wait", "mpl") for cell in sweep.cells)

    def test_probe_calibration_scenario_keeps_its_frozen_probe_set(self):
        """The scenario pins the six probes it was goldened with; probe
        additions after that (arrival_backlog) must not widen its schema."""
        from repro.runner.registry import build_sweep

        frozen = ("lock_wait", "lock_queue", "admission_queue", "mpl",
                  "abort_rates", "displacement", "aborts_by_reason")
        sweep = build_sweep("probe_calibration", scale=ExperimentScale.smoke())
        assert all(cell.observers == frozen for cell in sweep.cells)

    def test_open_diurnal_scenario_carries_the_backlog_probe(self):
        from repro.runner.registry import build_sweep

        sweep = build_sweep("open_diurnal", scale=ExperimentScale.smoke())
        assert all(cell.observers == ("arrival_backlog",) for cell in sweep.cells)
        assert all(cell.arrivals is not None for cell in sweep.cells)
