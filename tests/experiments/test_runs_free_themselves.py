"""A finished run frees itself: no cyclic garbage is left behind.

Every object of a finished cell must be freed by reference counting alone.
Objects that refer to themselves, or a run whose processes keep their
generator frames alive, leave cycles that only CPython's cycle collector
frees; then finished cells pile up between full collections and the
worker's peak memory grows with them.  With the collector disabled, each
smoke cell of every golden scenario must leave ``gc.collect()`` nothing to
find: a cycle may form only in some cells (a deadlock victim, a wound, a
displacement), so no cell stands in for the others.

Each test re-enables the collector before it asserts, so a failing cell
leaves the next one unharmed, and its message counts the types of the
garbage (kept by ``gc.DEBUG_SAVEALL``) to name the leak.
"""

import gc
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.registry import build_sweep

_TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "regen_goldens.py"
_spec = importlib.util.spec_from_file_location("regen_goldens", _TOOL_PATH)
regen_goldens = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("regen_goldens", regen_goldens)
_spec.loader.exec_module(regen_goldens)


_CELLS = [cell for name in regen_goldens.GOLDEN_SCENARIOS
          for cell in build_sweep(name, scale=ExperimentScale.smoke()).cells]


@pytest.mark.parametrize("cell", _CELLS, ids=[cell.cell_id for cell in _CELLS])
def test_a_finished_cell_leaves_no_cyclic_garbage(cell):
    gc.collect()
    gc.disable()
    try:
        metrics = execute_run_spec(cell).metrics
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert metrics
    assert not garbage, f"cyclic garbage by type: {dict(garbage.most_common())}"
