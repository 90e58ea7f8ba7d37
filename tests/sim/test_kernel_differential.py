"""Differential test: the engine against the reference kernel.

Hypothesis generates scripts of 1-6 actors sharing 1-2 FCFS resources and
two plain events, and each script runs on ``repro.sim`` and on
``reference_kernel``.  Delays come from {0, 0.5, 1, 1.5}, so zero and equal
delays are common and the order of equal-time events decides the log.  The
two kernels must log the same ``(time, actor, step, outcome, resources)``
entries in the same order, read the same variates, report the same
``utilisation()`` to the bit at the pause and at the stop, and schedule
the same number of events, with as many left pending.

Each step but ``child`` follows a pattern of the transaction model: catch
``Interrupt`` (displacement) and the failure of a fired event (a
lock-table abort), and withdraw the station visit afterwards, as
``_transaction_lifecycle`` does when a displacement interrupts one.
``child`` covers kernel rule 6 only: no model process waits on another
since each terminal or session runs its transactions' lifecycles itself.
The step kinds:

* ``sleep`` -- wait on a timeout;
* ``visit`` -- visit a resource with a demand and a delay, each zero or
  positive, and wait for the visit to end; with ``drawn``, the demand is
  scaled by a variate that the visit reads from its resource's reader
  when it is made, as the CPU demand is (the readers cycle through 1, 0.5
  and 2, so equal times stay common, and log every read and give-back);
  with ``watch``, a callback is registered on the visit before the wait,
  as ``cc/history.py`` does on lock grants;
* ``cancel`` -- make a drawn visit, nap, then cancel it; nothing waits on
  it during the nap, so the cancel finds it waiting, starting at that
  instant, in service, in its delay or over;
* ``child`` -- start a child process, nap, then wait on the child;
* ``wait`` -- wait on a shared plain event, with ``watch`` as above;
* ``fire`` -- succeed or fail a shared plain event, renewing it first if it
  has fired already, as the admission gate and the lock table do;
* ``interrupt`` -- interrupt an actor (perhaps itself), whether it is
  waiting, holding or not yet started.
"""

from types import SimpleNamespace

import reference_kernel
from hypothesis import given, settings
from hypothesis import strategies as st
from scripted_draws import ScriptedDraws

from repro.sim import engine, resources

#: examples per run in tier-1; the ``ci`` profile of ``conftest.py`` runs more
TIER1_EXAMPLES = 300

ENGINE = SimpleNamespace(Simulator=engine.Simulator, Event=engine.Event,
                         Interrupt=engine.Interrupt, Resource=resources.Resource)
REFERENCE = SimpleNamespace(Simulator=reference_kernel.Simulator, Event=reference_kernel.Event,
                            Interrupt=reference_kernel.Interrupt, Resource=reference_kernel.Resource)

DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
#: the standard variates each resource's reader cycles through
VARIATES = (1.0, 0.5, 2.0)
N_SHARED = 2
#: the first run stops here, so the run loop also re-queues an entry past it
PAUSE = 1.0
HORIZON = 100.0


class Fired(Exception):
    """The failure a ``fire`` step sets on a shared event."""


@st.composite
def scripts(draw):
    """Resource capacities and, per actor, a list of steps."""
    capacities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    n_actors = draw(st.integers(1, 6))
    resource = st.integers(0, len(capacities) - 1)
    shared = st.integers(0, N_SHARED - 1)
    step = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("visit"), resource, DELAYS, DELAYS, st.booleans(), st.booleans()),
        st.tuples(st.just("cancel"), resource, DELAYS, DELAYS, DELAYS),
        st.tuples(st.just("child"), DELAYS, DELAYS),
        st.tuples(st.just("wait"), shared, st.booleans()),
        st.tuples(st.just("fire"), shared, st.booleans()),
        st.tuples(st.just("interrupt"), st.integers(0, n_actors - 1)),
    )
    actors = draw(st.lists(st.lists(step, min_size=1, max_size=8),
                           min_size=n_actors, max_size=n_actors))
    return capacities, actors


def run_script(kernel, script):
    """Run ``script`` on ``kernel``; return its log and event counts."""
    capacities, actors = script
    sim = kernel.Simulator()
    pool = [kernel.Resource(sim, capacity) for capacity in capacities]
    shared = [kernel.Event(sim) for _ in range(N_SHARED)]
    processes = []
    log = []
    # read in the middle of a visit or a cancel, so they log no resource state
    readers = [ScriptedDraws(VARIATES, lambda entry, index=index: log.append((sim.now, "draws", index, entry)))
               for index in range(len(pool))]

    def record(actor, step, outcome):
        log.append((sim.now, actor, step, outcome,
                    tuple((resource.in_use, resource.queue_length) for resource in pool)))

    def watcher(actor, step, what):
        return lambda event: record(actor, step, (what, event.ok))

    def child(delay, tag):
        yield sim.timeout(delay)
        return tag

    def actor(index, steps):
        for step, (kind, *args) in enumerate(steps):
            tag = f"{index}.{step}"
            station = visit = None
            try:
                if kind == "sleep":
                    yield sim.timeout(args[0])
                    record(index, step, "slept")
                elif kind == "visit":
                    resource, demand, delay, drawn, watch = args
                    station = pool[resource]
                    visit = station.visit(demand, delay, readers[resource] if drawn else None)
                    if watch:
                        visit.add_callback(watcher(index, step, "end seen"))
                    yield visit
                    record(index, step, "visited")
                elif kind == "cancel":
                    resource, demand, delay, nap = args
                    station = pool[resource]
                    visit = station.visit(demand, delay, readers[resource])
                    yield sim.timeout(nap)
                    station.cancel(visit)
                    record(index, step, "cancelled")
                elif kind == "child":
                    delay, nap = args
                    process = sim.process(child(delay, tag))
                    yield sim.timeout(nap)
                    record(index, step, ("joined", (yield process)))
                elif kind == "wait":
                    slot, watch = args
                    event = shared[slot]
                    if watch:
                        event.add_callback(watcher(index, step, "seen"))
                    record(index, step, ("got", (yield event)))
                elif kind == "fire":
                    slot, ok = args
                    event = shared[slot]
                    if event.triggered:
                        event = shared[slot] = kernel.Event(sim)
                    if ok:
                        event.succeed(tag)
                    else:
                        event.fail(Fired(tag))
                    record(index, step, ("fired", ok))
                else:
                    victim = processes[args[0]]
                    alive = victim.is_alive
                    if alive:
                        victim.interrupt(tag)
                    record(index, step, ("interrupt", args[0], alive))
            except kernel.Interrupt as interrupt:
                record(index, step, ("interrupted", interrupt.cause))
            except Fired as failure:
                record(index, step, ("failed", str(failure)))
            finally:
                if visit is not None:
                    station.cancel(visit)

    for index, steps in enumerate(actors):
        process = sim.process(actor(index, steps))
        process.add_callback(watcher(index, None, "done"))
        processes.append(process)
    sim.run(until=PAUSE)
    record(None, None, ("paused", tuple(resource.utilisation() for resource in pool)))
    sim.run(until=HORIZON)
    record(None, None, ("stopped", tuple(resource.utilisation() for resource in pool)))
    return log, sim._sequence, len(sim._queue)


@settings(max_examples=max(TIER1_EXAMPLES, settings.default.max_examples), deadline=None)
@given(scripts())
def test_engine_matches_the_reference_kernel(script):
    expected_log, expected_scheduled, expected_pending = run_script(REFERENCE, script)
    log, scheduled, pending = run_script(ENGINE, script)
    # entry by entry, so a failure names the first divergence
    for entry, expected in zip(log, expected_log):
        assert entry == expected
    assert len(log) == len(expected_log)
    assert (scheduled, pending) == (expected_scheduled, expected_pending)
