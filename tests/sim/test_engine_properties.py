"""Randomized property tests for the discrete-event engine's invariants.

The golden-trajectory harness (``tests/golden/``) pins *specific*
trajectories bit for bit; these tests pin the engine's *semantic
invariants* on randomly generated workloads, so a hot-path change that
happens to keep the goldens intact but breaks an invariant in some other
corner of the state space is still caught.

All randomness comes from seeded :mod:`random` (stdlib) instances -- runs
are fully reproducible and no extra dependency is needed.  Each property
is exercised over several seeds.

Invariants covered:

* **time monotonicity** -- the clock never moves backwards, whatever the
  schedule;
* **equal-timestamp FIFO** -- events scheduled at the same simulation time
  are processed strictly in scheduling order (the documented sequence
  counter tie-break contract);
* **interrupt semantics** -- interrupts arrive exactly at the interrupt
  time with their cause, unhandled interrupts fail the process but run its
  ``finally`` blocks, and an interrupted process abandons its target;
* **resource grant conservation** -- an FCFS resource never over-grants,
  never leaks slots through cancels or interrupts, and serves
  non-cancelled waiters in strict FCFS order;
* **transaction conservation** -- in the closed model every admission is
  balanced by a departure or an in-flight transaction, and with purely
  optimistic CC every departure is a commit.
"""

import random

import pytest

from timed_call import call_at

from repro.sim.engine import Event, Interrupt, Simulator
from repro.sim.resources import Resource

SEEDS = [1, 7, 42, 1991]


# ----------------------------------------------------------------------
# time monotonicity and equal-timestamp FIFO
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_clock_is_monotone_under_random_schedules(seed):
    rng = random.Random(seed)
    sim = Simulator()
    observed = []

    def sleeper(naps):
        for nap in naps:
            yield sim.timeout(nap)
            observed.append(sim.now)

    for _ in range(20):
        naps = [rng.choice([0.0, 0.125, 0.25, 1.0, rng.random()])
                for _ in range(rng.randint(1, 30))]
        sim.process(sleeper(naps))
    # sprinkle immediate events and absolute-time callbacks between them
    for _ in range(50):
        call_at(sim, rng.random() * 20.0, lambda: observed.append(sim.now))
    sim.run(until=60.0)

    assert observed, "the random schedule must produce observations"
    assert all(later >= earlier for earlier, later in zip(observed, observed[1:])), \
        "simulation time must never decrease"
    assert sim.now == 60.0


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_timestamp_events_fire_in_schedule_order(seed):
    """The tie-break contract: same time => strict scheduling order.

    Schedules many callbacks onto a handful of *identical* timestamps in
    random creation order and checks that, per timestamp, execution order
    equals creation order.
    """
    rng = random.Random(seed)
    sim = Simulator()
    times = [1.0, 2.5, 2.5 + 0.0, 7.0]  # duplicates on purpose
    fired = []
    scheduled = []

    for index in range(200):
        time = rng.choice(times)
        scheduled.append((time, index))
        call_at(sim, time, lambda t=time, i=index: fired.append((t, i)))
    sim.run(until=10.0)

    assert len(fired) == len(scheduled)
    # overall: sorted by (time, scheduling order) -- exactly the heap contract
    assert fired == sorted(scheduled)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_timestamp_process_wakeups_are_fifo(seed):
    """Processes sleeping until the same instant resume in schedule order."""
    rng = random.Random(seed)
    sim = Simulator()
    wakeups = []

    def sleeper(index, delay):
        yield sim.timeout(delay)
        wakeups.append(index)

    delays = [rng.choice([1.0, 2.0, 3.0]) for _ in range(60)]
    for index, delay in enumerate(delays):
        sim.process(sleeper(index, delay))
    sim.run(until=5.0)

    expected = [index for _t, index in
                sorted((delay, index) for index, delay in enumerate(delays))]
    assert wakeups == expected


# ----------------------------------------------------------------------
# interrupt semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_interrupts_arrive_on_time_with_their_cause(seed):
    rng = random.Random(seed)
    sim = Simulator()
    outcomes = {}

    def sleeper(index):
        try:
            yield sim.timeout(100.0)
            outcomes[index] = ("slept", sim.now)
        except Interrupt as interrupt:
            outcomes[index] = ("interrupted", sim.now, interrupt.cause)

    processes = {index: sim.process(sleeper(index)) for index in range(25)}
    interrupt_times = {}
    for index, process in processes.items():
        if rng.random() < 0.7:
            at = round(rng.uniform(0.1, 50.0), 6)
            interrupt_times[index] = at
            call_at(sim, at, lambda p=process, i=index: p.interrupt(f"cause-{i}"))
    sim.run(until=200.0)

    for index in processes:
        if index in interrupt_times:
            kind, at, cause = outcomes[index]
            assert kind == "interrupted"
            assert at == interrupt_times[index], "interrupt must arrive at its scheduled time"
            assert cause == f"cause-{index}"
        else:
            assert outcomes[index] == ("slept", 100.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_unhandled_interrupts_terminate_processes(seed):
    rng = random.Random(seed)
    sim = Simulator()
    cleanups = []

    def stubborn(index):
        try:
            yield sim.timeout(100.0)
        finally:
            cleanups.append(index)

    processes = {index: sim.process(stubborn(index)) for index in range(20)}
    for process in processes.values():
        call_at(sim, round(rng.uniform(0.1, 20.0), 6), process.interrupt)
    sim.run(until=200.0)

    assert sorted(cleanups) == sorted(processes), "finally blocks must always run"
    for process in processes.values():
        assert not process.is_alive
        assert isinstance(process.exception, Interrupt)


@pytest.mark.parametrize("seed", SEEDS)
def test_interrupted_process_abandons_its_target(seed):
    """After an interrupt, the abandoned event must not resume the process."""
    rng = random.Random(seed)
    sim = Simulator()
    resumes = []

    def waiter(index, trigger):
        try:
            yield trigger
            resumes.append(("value", index, sim.now))
        except Interrupt:
            resumes.append(("interrupt", index, sim.now))
            # keep living to prove the abandoned trigger never comes back
            yield sim.timeout(50.0)
            resumes.append(("later", index, sim.now))

    for index in range(15):
        trigger = Event(sim)
        process = sim.process(waiter(index, trigger))
        interrupt_at = round(rng.uniform(1.0, 5.0), 6)
        trigger_at = interrupt_at + rng.uniform(0.5, 2.0)
        call_at(sim, interrupt_at, lambda p=process: p.interrupt())
        # the abandoned event still triggers afterwards -- it must be inert
        call_at(sim, trigger_at, lambda t=trigger: t.succeed("late"))
    sim.run(until=100.0)

    kinds = [kind for kind, _i, _t in resumes]
    assert kinds.count("value") == 0, "abandoned events must not deliver values"
    assert kinds.count("interrupt") == 15
    assert kinds.count("later") == 15


# ----------------------------------------------------------------------
# resource grant conservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("capacity", [1, 3])
def test_resource_conservation_under_random_workload(seed, capacity):
    rng = random.Random(seed * 1000 + capacity)
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    all_visits = []
    cancelled = []
    finished = []

    def check_holders():
        # a plain count of the visits holding a server now
        held = sum(1 for visit in all_visits if visit.start <= sim.now < visit.finish)
        assert held <= resource.capacity, "over-granted"
        assert held == resource.in_use

    def worker(index):
        cycles = rng.randint(1, 5)
        completed = 0
        while completed < cycles:
            visit = None
            try:
                yield sim.timeout(rng.random())
                visit = resource.visit(rng.random(), rng.random() / 4)
                all_visits.append(visit)
                check_holders()
                yield visit
                assert sim.now == visit.finish + visit.delay
                check_holders()
                completed += 1
            except Interrupt:
                # the interrupt may land while thinking, waiting, being
                # served or in the delay; cancel handles all of them without
                # leaking a slot
                if visit is not None:
                    resource.cancel(visit)
                    if not visit.triggered:
                        # taken off the queue before it released its server
                        cancelled.append(visit)
                    check_holders()
        finished.append(index)

    workers = [sim.process(worker(index)) for index in range(30)]
    # random interrupts fired into the crowd while it queues
    for _ in range(20):
        victim = rng.choice(workers)
        at = rng.uniform(0.0, 15.0)
        call_at(sim, at, lambda p=victim: p.interrupt() if p.is_alive else None)
    sim.run(until=1000.0)

    assert len(finished) == 30, "every worker must run to completion"
    # conservation: nothing may remain held or queued at the end, and every
    # visit that was not cancelled before its release ended then
    assert resource.in_use == 0, "leaked slot"
    assert resource.queue_length == 0
    assert cancelled, "the interrupts must catch some visits at the station"
    assert all(visit.finish <= sim.now for visit in all_visits)
    assert not sim._queue


@pytest.mark.parametrize("seed", SEEDS)
def test_resource_fcfs_order_among_uncancelled_waiters(seed):
    """Waiters that are not cancelled are served strictly in arrival order."""
    rng = random.Random(seed)
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    request_order = []
    service_order = []

    cancelled = set()

    def worker(index, cancel_after):
        yield sim.timeout(index * 1e-3)  # deterministic staggered arrival
        visit = resource.visit(0.5, 0.0)
        request_order.append(index)  # true FCFS arrival order
        if cancel_after is not None:
            # withdraw while waiting (the holder occupies the server longer)
            yield sim.timeout(cancel_after)
            if visit.start > sim.now:
                resource.cancel(visit)
                cancelled.add(index)
                return
        yield visit
        # one server, equal demands and no delay: visits end in service order
        service_order.append(index)

    for index in range(20):
        cancel_after = rng.choice([None, None, None, 0.01])
        sim.process(worker(index, cancel_after))
    sim.run(until=100.0)

    expected = [index for index in request_order if index not in cancelled]
    assert cancelled
    assert service_order == expected


# ----------------------------------------------------------------------
# closed-model transaction conservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_admitted_equals_committed_plus_aborted_plus_in_flight(seed):
    """Gate-level conservation of the closed transaction model.

    Without displacement every departure is a commit, so at any stopping
    point ``admitted == committed + in-flight`` and every abandoned
    execution (abort) restarted inside the system rather than departing.
    """
    from repro.tp.params import SystemParams, WorkloadParams
    from repro.tp.system import TransactionSystem

    params = SystemParams(
        n_terminals=30, think_time=0.1, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, seed=seed,
        workload=WorkloadParams(db_size=60, accesses_per_txn=5,
                                query_fraction=0.2, write_fraction=0.8))
    system = TransactionSystem(params)
    system.run(until=5.0)

    gate = system.gate
    metrics = system.metrics
    in_flight = gate.current_load
    assert gate.total_admitted == gate.total_departed + in_flight
    # no displacement configured: departures are exactly the commits
    assert gate.total_departed == metrics.commits
    assert gate.total_admitted == metrics.commits + in_flight
    # aborted executions restarted in place -- they never pass the gate again
    assert metrics.restarts == metrics.total_aborts
    assert metrics.submitted >= gate.total_admitted
    # the small database forces real contention, so the run exercises aborts
    assert metrics.commits > 0
    assert metrics.total_aborts > 0
