"""A transaction's access set is drawn at its first admission, in submission order.

At submission the workload draws only the class and numbers the
transaction.  Its first admission draws the access sets and write marks of
every earlier-submitted transaction still undrawn, then its own, so the
``data-access`` and ``write-marks`` streams are read in submission order
and every transaction gets the accesses a draw at submission gave it.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.registry import build_sweep
from repro.sim.random_streams import RandomStreams
from repro.tp.database import Database
from repro.tp.params import WorkloadParams
from repro.tp.workload import JumpSchedule, Workload


def _cell(scenario: str, cell_id: str):
    [cell] = [cell for cell in build_sweep(scenario, ExperimentScale.smoke()).cells
              if cell.cell_id == cell_id]
    return dataclasses.replace(cell, observers=("trace",))


def _run(cell, eager: bool, monkeypatch):
    """The cell's result and every transaction its workload built, drawn at
    first admission or, with ``eager``, at submission."""
    built = []
    sampled = []
    submit = Workload._transaction
    sample = Database.sample_access_set

    def recording_submit(self, *args, **kwargs):
        txn = submit(self, *args, **kwargs)
        built.append(txn)
        if eager:
            self.draw_through(txn)
        return txn

    def counting_sample(self, count):
        sampled.append(count)
        return sample(self, count)

    with monkeypatch.context() as patch:
        patch.setattr(Workload, "_transaction", recording_submit)
        patch.setattr(Database, "sample_access_set", counting_sample)
        result = execute_run_spec(cell)
    return result, built, len(sampled)


@pytest.mark.parametrize("scenario, cell_id", [
    ("fig12_stationary", "fig12_stationary/IS control/N=300"),
    ("flash_crowd", "flash_crowd/IS control/N=300"),
])
def test_lazy_draws_equal_eager_draws(scenario, cell_id, monkeypatch):
    cell = _cell(scenario, cell_id)
    lazy, lazy_built, lazy_samples = _run(cell, False, monkeypatch)
    eager, eager_built, eager_samples = _run(cell, True, monkeypatch)
    assert lazy.metrics == eager.metrics
    assert lazy.trace == eager.trace
    assert [(txn.txn_id, txn.txn_class, txn.tenant, txn.submitted_at) for txn in lazy_built] \
        == [(txn.txn_id, txn.txn_class, txn.tenant, txn.submitted_at) for txn in eager_built]
    drawn = [txn for txn in lazy_built if txn.items]
    # the drawn transactions are the first ones submitted, drawn as at submission
    assert drawn == lazy_built[:len(drawn)]
    for lazy_txn, eager_txn in zip(drawn, eager_built):
        assert (lazy_txn.items, lazy_txn.write_flags) == (eager_txn.items, eager_txn.write_flags)
    # some transactions never reached an admission, and drew nothing
    assert 0 < len(drawn) < len(lazy_built)
    assert lazy_samples == len(drawn) and eager_samples == len(eager_built)
    if scenario == "flash_crowd":
        assert lazy.metrics["shed"] > 0


class TestDrawThrough:
    def test_an_undrawn_transaction_reads_no_data_access_word(self):
        workload = Workload(WorkloadParams(query_fraction=0.0), RandomStreams(seed=3))
        txn = workload.next_transaction(0.0, 0)
        assert txn.items == () and txn.write_flags == ()
        assert workload.database._words == []
        assert "data-access" not in workload.streams._generators
        assert "write-marks" not in workload.streams._generators

    def test_draws_run_in_submission_order(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=4, query_fraction=0.3)
        lazy = Workload(base, RandomStreams(seed=8), accesses=JumpSchedule(4, 16, 100.0))
        eager = Workload(base, RandomStreams(seed=8), accesses=JumpSchedule(4, 16, 100.0))
        times = [50.0, 60.0, 150.0, 160.0]
        submitted = [lazy.next_transaction(time, index) for index, time in enumerate(times)]
        expected = []
        for index, time in enumerate(times):
            txn = eager.next_transaction(time, index)
            eager.draw_through(txn)
            expected.append(txn)
        # the third is admitted first: the two before it draw first
        lazy.draw_through(submitted[2])
        assert [txn.size for txn in submitted] == [4, 4, 16, 0]
        lazy.draw_through(submitted[0])  # drawn already: draws nothing
        lazy.draw_through(submitted[3])
        assert [(txn.items, txn.write_flags) for txn in submitted] \
            == [(txn.items, txn.write_flags) for txn in expected]
