"""The station takes one heap entry per CPU phase, and its reads hold between runs.

A visit is computed when it is made and scheduled once, for the end of its
delay, so the closed model's heap work per commit is the phases' ends plus
the terminals' own events.  Reads of the station between two
``run(until=...)`` calls replay the releases due by then, including one
that falls exactly at the pause.
"""

import pytest
import reference_kernel
from scripted_draws import ScriptedDraws

import repro.sim
from repro.experiments.config import default_system_params
from repro.tp.system import TransactionSystem

KERNELS = pytest.mark.parametrize(
    "kernel", [pytest.param(repro.sim, id="engine"), pytest.param(reference_kernel, id="reference")])


def _idle(sim, resource):
    pass


def _busy_with_a_queue(sim, resource):
    for _ in range(resource.capacity + 2):
        resource.visit(1.0, 1.0)
    sim.run(until=0.5)


def _at_a_release(sim, resource):
    for _ in range(resource.capacity + 1):
        resource.visit(1.0, 2.0)
    sim.run(until=1.0)  # the first visits release their servers now


def _another_entry_due_now(sim, resource):
    resource.visit(1.0, 1.0)
    sim.timeout(0.0)


def _after_a_cancel(sim, resource):
    visits = [resource.visit(1.0, 1.0) for _ in range(resource.capacity + 2)]
    resource.cancel(visits[0])
    resource.cancel(visits[-1])


STATES = {"idle": _idle, "busy with a queue": _busy_with_a_queue, "at a release": _at_a_release,
          "another entry due now": _another_entry_due_now, "after a cancel": _after_a_cancel}


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("demand, delay, drawn", [(1.0, 1.0, False), (1.0, 1.0, True), (0.0, 0.0, False),
                                                  (0.5, 0.0, True), (0.0, 2.0, False)])
def test_a_visit_adds_exactly_one_heap_entry(state, demand, delay, drawn):
    sim = repro.sim.Simulator()
    resource = repro.sim.Resource(sim, 2)
    STATES[state](sim, resource)
    sequence, pending = sim._sequence, len(sim._queue)
    resource.visit(demand, delay, ScriptedDraws() if drawn else None)
    assert (sim._sequence, len(sim._queue)) == (sequence + 1, pending + 1)


def _reads_around_a_release(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 2)
    draws = ScriptedDraws((1.0, 0.5, 2.0, 1.5))
    reads = []

    def visitor(demand, delay, think):
        while True:
            yield resource.visit(demand, delay, draws)
            yield sim.timeout(think)

    for demand, delay, think in ((1.0, 0.5, 1.5), (0.5, 1.0, 0.25), (0.75, 0.25, 3.0), (1.0, 0.0, 2.0)):
        sim.process(visitor(demand, delay, think))
    # the first visit holds a server over [0, 1); the fourth waits for it
    # and holds it over [1, 2.5)
    for pause in (1.0, 2.0, 2.5, 2.5, 7.5):
        sim.run(until=pause)
        reads.append((sim.now, resource.in_use, resource.queue_length, resource.utilisation()))
    return reads


@KERNELS
def test_reads_between_runs_at_a_release_instant(kernel):
    reads = _reads_around_a_release(kernel)
    # the first pause falls on the first visit's release: it no longer
    # counts, and the fourth visit holds its server
    assert reads[0][:3] == (1.0, 2, 0)
    assert 0.0 < reads[-1][3] <= 1.0


def test_reads_between_runs_match_the_reference_kernel():
    assert _reads_around_a_release(repro.sim) == _reads_around_a_release(reference_kernel)


def test_the_closed_model_schedules_at_most_14_heap_entries_per_commit():
    system = TransactionSystem(default_system_params(seed=1).with_changes(n_terminals=50))
    system.run(until=10.0)
    # one entry per CPU phase and the lifecycle inside its terminal: 13.38
    # per commit; with a child process per admission the same run took
    # 15.41, and with a grant and a completion event per phase 26.41
    assert system.metrics.commits > 300
    assert system.sim._sequence / system.metrics.commits <= 14.0
