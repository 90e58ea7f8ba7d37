"""End-to-end cache soundness against the golden trajectory fixtures.

The headline guarantee of the sweep service: a cache-hit result is
byte-identical to a fresh simulation.  Every golden scenario is submitted
twice through one persistent service — cold (an empty cache; every cell
misses and is simulated by real worker subprocesses) and warm (every cell
hits; nothing is simulated) — and both runs must agree byte-for-byte with
each other *and* with the committed golden fixtures.  Hit/miss counts are
asserted exactly, per job, not approximately.

The final test re-mounts the same cache directory in a fresh service with
**zero workers connected**: every scenario still completes, which proves
the warm path performs zero simulations rather than merely fewer.
"""

import json
from pathlib import Path

import pytest

from repro.canonical import canonical_json
from repro.dist.cluster import spawn_local_workers
from repro.svc.client import ServiceClient
from repro.svc.service import SweepService

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

SCENARIOS = ("thrashing", "fig12_stationary", "fig13_is_jump",
             "fig14_pa_jump", "sinusoid", "mixed_classes",
             "cc_compare", "displacement_policies",
             "deadlock_resolution", "isolation_tradeoff",
             "probe_calibration", "open_diurnal", "flash_crowd")


def test_scenario_list_matches_the_golden_harness():
    """Keep this suite honest: it must cover every pinned scenario."""
    import importlib.util
    import sys

    tool = GOLDEN_DIR.parent.parent / "tools" / "regen_goldens.py"
    if "regen_goldens" in sys.modules:
        regen = sys.modules["regen_goldens"]
    else:
        spec = importlib.util.spec_from_file_location("regen_goldens", tool)
        regen = importlib.util.module_from_spec(spec)
        sys.modules["regen_goldens"] = regen
        spec.loader.exec_module(regen)
    assert tuple(regen.GOLDEN_SCENARIOS) == SCENARIOS


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("svc-cache")


@pytest.fixture(scope="module")
def service(cache_dir):
    """One persistent service with two real worker subprocesses."""
    with SweepService(cache=cache_dir, heartbeat_timeout=30.0) as svc:
        processes = spawn_local_workers(svc.worker_address, 2)
        try:
            svc.executor.wait_for_workers(2)
            yield svc
        finally:
            svc.close()
            for process in processes:
                try:
                    process.wait(timeout=15)
                except Exception:
                    process.kill()
                    process.wait()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cold_then_warm_byte_identical_to_golden(service, scenario):
    client = ServiceClient(service.control_address)
    golden = json.loads((GOLDEN_DIR / f"{scenario}.json").read_text())
    n_cells = len(golden["cells"])

    cold_id = client.submit_scenario(scenario)
    cold = client.wait(cold_id, timeout=600.0)
    assert cold["state"] == "done"
    # exact accounting: an empty cache means every cell missed
    assert cold["cache_hits"] == 0
    assert cold["cache_misses"] == n_cells

    warm_id = client.submit_scenario(scenario)
    warm = client.wait(warm_id, timeout=600.0)
    assert warm["state"] == "done"
    # and a fully warm cache means every cell hit
    assert warm["cache_hits"] == n_cells
    assert warm["cache_misses"] == 0

    cold_doc = client.results(cold_id)
    warm_doc = client.results(warm_id)
    # the headline guarantee, stated as bytes
    assert canonical_json(warm_doc) == canonical_json(cold_doc)

    # and both agree with the committed golden fixture, cell by cell
    assert [cell["cell_id"] for cell in warm_doc["cells"]] == \
        [cell["cell_id"] for cell in golden["cells"]]
    for served, pinned in zip(warm_doc["cells"], golden["cells"]):
        assert canonical_json(served["metrics"]) == \
            canonical_json(pinned["metrics"]), served["cell_id"]


def test_warm_cache_serves_every_scenario_with_zero_workers(cache_dir):
    """Zero simulations, not merely fewer: no worker ever connects."""
    from repro.runner.cells import execute_run_spec
    from repro.runner.specs import run_spec_fingerprint
    from repro.svc.cache import ResultCache
    from repro.svc.service import scenario_cells

    # self-containment: when this test runs alone (the full module run
    # leaves the cache fully warm already), fill any missing entries
    # in-process so the zero-worker property is tested on its own merits
    cache = ResultCache(cache_dir)
    for scenario in SCENARIOS:
        for cell in scenario_cells(scenario):
            if not cache.path_for(run_spec_fingerprint(cell)).exists():
                cache.store(cell, execute_run_spec(cell))

    with SweepService(cache=cache_dir) as svc:
        client = ServiceClient(svc.control_address)
        for scenario in SCENARIOS:
            job_id = client.submit_scenario(scenario)
            status = client.wait(job_id, timeout=60.0)
            assert status["state"] == "done", scenario
            assert status["cache_misses"] == 0, scenario
            assert status["cache_hits"] == status["n_cells"] > 0, scenario
        assert svc.executor.workers == 0
