"""Property tests for the content-addressed cache key.

:func:`~repro.runner.specs.run_spec_fingerprint` must behave like a
content hash of the *semantics* of a cell: equal specs hash equal, any
single-field perturbation that changes what would be simulated changes
the key, and the key is a pure function of the spec — stable across
process boundaries, worker counts, and a real localhost cluster.  These
properties are exactly what makes serving a repeated cell from the cache
sound: a collision would silently return the wrong experiment, and an
instability would silently re-simulate everything.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.cluster import launch_local_cluster
from repro.experiments.config import ExperimentScale
from repro.runner.executor import make_executor
from repro.runner.registry import available_scenarios, build_sweep
from repro.runner.specs import (
    SPEC_FINGERPRINT_VERSION,
    run_spec_fingerprint,
    run_spec_from_jsonable,
)
from repro.svc.cache import ResultCache
from repro.tp.workload import JumpSchedule


def _cells(scenario):
    return build_sweep(scenario, scale=ExperimentScale.smoke()).cells


@pytest.fixture(scope="module")
def thrashing_cells():
    return _cells("thrashing")


@pytest.fixture(scope="module")
def base_cell(thrashing_cells):
    return thrashing_cells[0]


# ----------------------------------------------------------------------
# equality: same content, same key
# ----------------------------------------------------------------------
class TestEquality:
    def test_independent_builds_hash_equal(self, thrashing_cells):
        rebuilt = _cells("thrashing")
        assert [run_spec_fingerprint(cell) for cell in thrashing_cells] == \
            [run_spec_fingerprint(cell) for cell in rebuilt]

    def test_a_copy_hashes_equal(self, base_cell):
        clone = dataclasses.replace(base_cell)
        assert clone is not base_cell
        assert run_spec_fingerprint(clone) == run_spec_fingerprint(base_cell)

    def test_every_golden_cell_has_a_distinct_key(self):
        fingerprints = []
        for scenario in ("thrashing", "cc_compare", "probe_calibration",
                         "open_diurnal", "fig13_is_jump"):
            fingerprints += [run_spec_fingerprint(c) for c in _cells(scenario)]
        assert len(set(fingerprints)) == len(fingerprints)


# ----------------------------------------------------------------------
# sensitivity: any semantic perturbation changes the key
# ----------------------------------------------------------------------
def _perturb_seed(cell):
    return dataclasses.replace(
        cell, params=dataclasses.replace(cell.params, seed=cell.params.seed + 1))


def _perturb_n_terminals(cell):
    return dataclasses.replace(
        cell, params=dataclasses.replace(cell.params,
                                         n_terminals=cell.params.n_terminals + 1))


def _perturb_replicate(cell):
    return dataclasses.replace(cell, replicate=cell.replicate + 1)


def _perturb_horizon(cell):
    return dataclasses.replace(
        cell, scale=dataclasses.replace(
            cell.scale, stationary_horizon=cell.scale.stationary_horizon + 1.0))


PERTURBATIONS = [
    ("seed", _perturb_seed),
    ("n_terminals", _perturb_n_terminals),
    ("replicate", _perturb_replicate),
    ("stationary_horizon", _perturb_horizon),
]


class TestSensitivity:
    @pytest.mark.parametrize("name,perturb", PERTURBATIONS,
                             ids=[name for name, _ in PERTURBATIONS])
    def test_single_field_perturbation_changes_the_key(self, base_cell,
                                                       name, perturb):
        assert run_spec_fingerprint(perturb(base_cell)) != \
            run_spec_fingerprint(base_cell)

    def test_cc_option_changes_the_key(self):
        cell = next(c for c in _cells("cc_compare")
                    if c.cc is not None and c.cc.options)
        perturbed = dataclasses.replace(
            cell, cc=dataclasses.replace(
                cell.cc, options=(("victim_policy", "oldest"),)))
        assert cell.cc.options != perturbed.cc.options
        assert run_spec_fingerprint(perturbed) != run_spec_fingerprint(cell)

    def test_schedule_breakpoint_changes_the_key(self):
        cell = next(c for c in _cells("fig13_is_jump") if c.scenario)
        name, schedule = cell.scenario
        moved = JumpSchedule(before=schedule.before, after=schedule.after,
                             jump_time=schedule.jump_time + 1.0)
        perturbed = dataclasses.replace(cell, scenario=(name, moved))
        assert run_spec_fingerprint(perturbed) != run_spec_fingerprint(cell)

    def test_observer_set_changes_the_key(self):
        cell = next(c for c in _cells("probe_calibration") if c.observers)
        for index in range(len(cell.observers)):
            fewer = cell.observers[:index] + cell.observers[index + 1:]
            perturbed = dataclasses.replace(cell, observers=fewer)
            assert run_spec_fingerprint(perturbed) != run_spec_fingerprint(cell)

    def test_arrival_model_changes_the_key(self):
        cell = next(c for c in _cells("open_diurnal")
                    if c.arrivals is not None)
        closed = dataclasses.replace(cell, arrivals=None)
        assert run_spec_fingerprint(closed) != run_spec_fingerprint(cell)

    @settings(max_examples=25, deadline=None)
    @given(seed_a=st.integers(min_value=0, max_value=2**31),
           seed_b=st.integers(min_value=0, max_value=2**31))
    def test_keys_collide_exactly_when_seeds_do(self, seed_a, seed_b):
        base = _cells("thrashing")[0]
        cell_a = dataclasses.replace(
            base, params=dataclasses.replace(base.params, seed=seed_a))
        cell_b = dataclasses.replace(
            base, params=dataclasses.replace(base.params, seed=seed_b))
        assert (run_spec_fingerprint(cell_a) == run_spec_fingerprint(cell_b)) \
            == (seed_a == seed_b)


# ----------------------------------------------------------------------
# versioning and uncacheable specs
# ----------------------------------------------------------------------
#: the cache key of every smoke-scale registry cell and of every committed
#: corpus spec: a change to any of them orphans existing cache entries, so
#: it needs a SPEC_FINGERPRINT_VERSION bump and a deliberate re-pin
PINNED = json.loads(Path(__file__).with_name("pinned_fingerprints.json").read_text())
CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"


class TestVersioning:
    @pytest.mark.parametrize("scenario", sorted(PINNED["scenarios"]))
    def test_registry_keys_are_pinned(self, scenario):
        """A spec refactor that moves a key silently orphans every cache entry."""
        assert {f"{cell.cell_id}#{cell.replicate}": run_spec_fingerprint(cell)
                for cell in _cells(scenario)} == PINNED["scenarios"][scenario]

    def test_every_scenario_is_pinned(self):
        assert sorted(PINNED["scenarios"]) == sorted(available_scenarios())

    def test_corpus_keys_are_pinned(self):
        keys = {path.name: run_spec_fingerprint(run_spec_from_jsonable(
                    json.loads(path.read_text())["run_spec"]))
                for path in sorted(CORPUS_DIR.glob("*.json"))}
        assert keys == PINNED["corpus"]

    def test_fingerprint_version_salts_the_key(self, base_cell, monkeypatch):
        before = run_spec_fingerprint(base_cell)
        import repro.runner.specs as specs

        monkeypatch.setattr(specs, "SPEC_FINGERPRINT_VERSION",
                            SPEC_FINGERPRINT_VERSION + 1)
        assert specs.run_spec_fingerprint(base_cell) != before

    def test_uncacheable_spec_raises_and_cache_returns_none(self, base_cell,
                                                            tmp_path):
        opaque = dataclasses.replace(
            base_cell, controller=lambda params: None)
        with pytest.raises(ValueError):
            run_spec_fingerprint(opaque)
        cache = ResultCache(tmp_path)
        assert cache.key_for(opaque) is None
        assert cache.get(opaque) is None
        assert cache.put(opaque, object()) is None
        assert cache.stats()["uncacheable"] == 1
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0


# ----------------------------------------------------------------------
# stability: the key is a pure function of the spec, everywhere
# ----------------------------------------------------------------------
class TestStability:
    def test_stable_across_worker_counts(self, thrashing_cells):
        expected = [run_spec_fingerprint(cell) for cell in thrashing_cells]
        for workers in (1, 2):
            executor = make_executor(workers)
            try:
                assert executor.execute(run_spec_fingerprint,
                                        thrashing_cells) == expected
            finally:
                if hasattr(executor, "close"):
                    executor.close()

    def test_stable_across_a_two_worker_cluster(self, thrashing_cells):
        expected = [run_spec_fingerprint(cell) for cell in thrashing_cells]
        with launch_local_cluster(workers=2) as cluster:
            assert cluster.execute(run_spec_fingerprint,
                                   thrashing_cells) == expected
