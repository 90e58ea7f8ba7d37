"""Displacement order: all victims of one displacement abort before any departs.

Section 4.3 of the paper enforces a lowered threshold by "aborting as many
active transactions as necessary" in one step.  The simulator interrupts
each victim's terminal process at the same instant; every interrupt runs in
a wake-up of its own, and a displaced transaction departs only after one
more zero-delay event.  So at an instant with several victims, the trace
logs every victim's ``abort`` before any victim's ``depart``, and the gate
admits no waiter in between.  Each victim's terminal then stays alive and
submits the transaction again under the same ``txn_id``.

The smoke ``displacement_policies/youngest`` cell has 14 instants with two
or more displacement aborts; 86 of its 116 victims are admitted again and
the other 30 are still queued at the gate when the run ends.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.registry import build_sweep
from repro.sim.trace import ABORT, ADMIT, DEPART
from repro.tp.system import DISPLACED, TransactionSystem


@pytest.fixture(scope="module")
def youngest_cell_run():
    """The trace of the cell, the txn ids queued at its end and its live terminals."""
    cell = next(cell for cell in build_sweep("displacement_policies",
                                             scale=ExperimentScale.smoke()).cells
                if cell.label == "youngest")
    final = {}
    close = TransactionSystem.close

    def recording_close(system):
        final["queued"] = {txn.txn_id for txn, _event in system.gate._waiting}
        final["terminals"] = len(system._terminal_processes)
        final["alive"] = sum(process.is_alive for process in system._terminal_processes)
        close(system)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransactionSystem, "close", recording_close)
        trace = execute_run_spec(dataclasses.replace(cell, observers=("trace",))).trace
    return list(trace), final


def _by_instant(trace, kind, detail):
    records = defaultdict(list)
    for index, (time, record_kind, txn_id, record_detail) in enumerate(trace):
        if record_kind == kind and record_detail == detail:
            records[time].append((index, txn_id))
    return records


def test_every_victim_aborts_before_any_victim_departs(youngest_cell_run):
    trace, _final = youngest_cell_run
    aborts = _by_instant(trace, ABORT, "DISPLACEMENT")
    departs = _by_instant(trace, DEPART, DISPLACED)
    instants = [time for time, records in aborts.items() if len(records) >= 2]
    assert instants, "the cell must displace several transactions at one instant"
    for time in instants:
        victims = {txn_id for _index, txn_id in aborts[time]}
        assert victims <= {txn_id for _index, txn_id in departs[time]}
        last_abort = max(index for index, _txn_id in aborts[time])
        first_depart = min(index for index, _txn_id in departs[time])
        assert last_abort < first_depart, f"a victim departed before the last abort at t={time}"


def test_every_victim_is_resubmitted_by_its_live_terminal(youngest_cell_run):
    trace, final = youngest_cell_run
    assert final["alive"] == final["terminals"] > 0
    last_admit = {txn_id: index for index, (_time, kind, txn_id, _detail) in enumerate(trace)
                  if kind == ADMIT}
    readmitted = queued = 0
    for records in _by_instant(trace, DEPART, DISPLACED).values():
        for index, txn_id in records:
            if last_admit[txn_id] > index:
                readmitted += 1
            else:
                assert txn_id in final["queued"], f"victim {txn_id} was never resubmitted"
                queued += 1
    assert readmitted > 0 and queued > 0
