"""Golden-trajectory regression tests for the simulation core.

The fixtures under ``tests/golden/`` pin the exact behavior of the
discrete-event engine through every registry scenario at smoke scale:
per-transaction lifecycle event logs (via a digest over their canonical
serialisation, plus a verbatim head) and the runner's summary metrics.
The original five were generated with ``tools/regen_goldens.py`` *before*
the hot-path rewrite of the engine and act as the bit-for-bit contract the
optimised engine must honour; later scenarios (``mixed_classes``,
``cc_compare``, ``displacement_policies``, ``deadlock_resolution``,
``isolation_tradeoff``, ``probe_calibration``, and the open-system pair
``open_diurnal``/``flash_crowd``) were pinned the moment they were
introduced.

Two assertions per scenario:

* **serial** — re-capturing the scenario in-process reproduces the golden
  file bitwise (canonical JSON string equality, covering every event
  timestamp and every metric);
* **workers=2** — running the same traced sweep over two local dist
  workers (``DistributedExecutor(local_workers=2)``, real TCP sockets
  and subprocesses) reproduces every cell's golden metrics and event log
  (length and digest) bitwise: the ``trace`` observer rides the cell spec,
  so trajectories come back from worker processes like any other
  observation, and every spec field provably survives the wire protocol.

A failure here means a change altered simulated trajectories.  Never
"fix" it by regenerating the goldens unless the semantic change is
intentional and documented; see ``tools/regen_goldens.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.runner.api import run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent
_TOOL_PATH = GOLDEN_DIR.parent.parent / "tools" / "regen_goldens.py"

# single source of truth for capture + canonicalisation: the regen tool
_spec = importlib.util.spec_from_file_location("regen_goldens", _TOOL_PATH)
regen_goldens = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("regen_goldens", regen_goldens)
_spec.loader.exec_module(regen_goldens)

SCENARIOS = regen_goldens.GOLDEN_SCENARIOS


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_file_exists_and_is_canonical(name):
    """The checked-in fixture itself must be in canonical form."""
    text = _golden_path(name).read_text(encoding="utf-8")
    payload = json.loads(text)
    assert payload["scenario"] == name
    assert payload["scale"] == "smoke"
    assert payload["format"] == regen_goldens.GOLDEN_FORMAT
    assert regen_goldens.canonical_json(payload) + "\n" == text


@pytest.mark.parametrize("name", SCENARIOS)
def test_serial_trajectories_bitwise_identical(name):
    """Serial re-capture reproduces event logs and metrics bit for bit."""
    golden_text = _golden_path(name).read_text(encoding="utf-8")
    fresh = regen_goldens.capture_scenario(name)
    fresh_text = regen_goldens.canonical_json(fresh) + "\n"
    if fresh_text != golden_text:
        golden = json.loads(golden_text)
        _explain_mismatch(golden, fresh)
    assert fresh_text == golden_text


@pytest.mark.parametrize("name", SCENARIOS)
def test_workers2_metrics_and_trajectories_bitwise_identical(name):
    """Two local dist workers reproduce every cell's metrics and trajectory."""
    golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
    result = run_sweep(regen_goldens.traced_sweep(name), workers=2)
    _assert_cells_match_golden(result, golden)


def _assert_cells_match_golden(result, golden):
    assert len(result.results) == len(golden["cells"])
    for golden_cell, cell in zip(golden["cells"], result.results):
        assert cell.cell_id == golden_cell["cell_id"]
        assert (regen_goldens.canonical_json(dict(cell.metrics))
                == regen_goldens.canonical_json(golden_cell["metrics"]))
        assert len(cell.trace) == golden_cell["n_events"]
        assert regen_goldens.events_digest(cell.trace) == golden_cell["events_digest"]
        # aborts_by_reason cells label their analytic reference; the label
        # must survive the executor / wire protocol unchanged
        assert cell.model_reference == golden_cell.get("model_reference", "")


class TestRegenOnlyFlag:
    """``--only`` is the guard that keeps existing fixtures untouched."""

    def test_only_writes_exactly_the_named_fixture(self, tmp_path):
        assert regen_goldens.main(["--only", "thrashing",
                                   "--out", str(tmp_path)]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["thrashing.json"]
        fresh = json.loads((tmp_path / "thrashing.json").read_text())
        golden = json.loads(_golden_path("thrashing").read_text())
        assert fresh == golden

    def test_positional_scenarios_are_not_accepted(self, tmp_path):
        """--only is the single subset spelling; bare names are an error."""
        with pytest.raises(SystemExit):
            regen_goldens.main(["thrashing", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_only_rejects_unknown_scenarios(self, tmp_path):
        with pytest.raises(SystemExit):
            regen_goldens.main(["--only", "no_such_scenario",
                                "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []


def _explain_mismatch(golden: dict, fresh: dict) -> None:
    """Fail with the first diverging cell/event instead of a wall of JSON."""
    for golden_cell, fresh_cell in zip(golden["cells"], fresh["cells"]):
        cell_id = golden_cell["cell_id"]
        assert fresh_cell["cell_id"] == cell_id, (
            f"cell order changed: expected {cell_id!r}, got {fresh_cell['cell_id']!r}"
        )
        golden_head = golden_cell["events_head"]
        fresh_head = regen_goldens.sanitize(fresh_cell["events_head"])
        for index, (expected, actual) in enumerate(zip(golden_head, fresh_head)):
            assert actual == expected, (
                f"{cell_id}: first diverging trajectory event at index {index}: "
                f"expected {expected}, got {actual}"
            )
        assert fresh_cell["n_events"] == golden_cell["n_events"], (
            f"{cell_id}: event count changed "
            f"({golden_cell['n_events']} -> {fresh_cell['n_events']})"
        )
        assert fresh_cell["events_digest"] == golden_cell["events_digest"], (
            f"{cell_id}: trajectory diverged after the stored head "
            f"(first {len(golden_head)} events identical, digest differs)"
        )
        golden_metrics = regen_goldens.canonical_json(golden_cell["metrics"])
        fresh_metrics = regen_goldens.canonical_json(fresh_cell["metrics"])
        assert fresh_metrics == golden_metrics, (
            f"{cell_id}: metrics changed: expected {golden_metrics}, got {fresh_metrics}"
        )
