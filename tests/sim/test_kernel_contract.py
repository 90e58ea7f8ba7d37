"""The scheduling contract, rule by rule, on both kernels.

``test_kernel_differential.py`` only requires the engine and
``reference_kernel`` to agree, so a change made to both the same way would
still pass it.  These tests pin what the two agree on to the seven rules of
the engine's module docstring: each runs once on ``repro.sim`` and once on
the reference kernel, which exposes the same ``Simulator``, ``Event``,
``Interrupt`` and ``Resource`` names.
"""

import pytest
import reference_kernel
from scripted_draws import ScriptedDraws

import repro.sim

KERNELS = pytest.mark.parametrize(
    "kernel", [pytest.param(repro.sim, id="engine"), pytest.param(reference_kernel, id="reference")])


@KERNELS
def test_rule_1_equal_times_run_in_scheduling_order(kernel):
    sim = kernel.Simulator()
    log = []
    # both fire at t=2; the one scheduled at t=0 goes first
    sim.timeout(1.0).add_callback(
        lambda _e: sim.timeout(1.0).add_callback(lambda _e: log.append("scheduled at 1")))
    sim.timeout(2.0).add_callback(lambda _e: log.append("scheduled at 0"))
    sim.run(until=5.0)
    assert log == ["scheduled at 0", "scheduled at 1"]


@KERNELS
def test_rule_1_the_sequence_is_taken_when_scheduled_not_when_built(kernel):
    sim = kernel.Simulator()
    log = []
    built_first = kernel.Event(sim)
    built_first.add_callback(lambda _e: log.append("built first"))
    sim.timeout(1.0).add_callback(lambda _e: built_first.succeed())
    sim.timeout(1.0).add_callback(lambda _e: log.append("timeout"))
    sim.run(until=5.0)
    assert log == ["timeout", "built first"]


@KERNELS
def test_rule_2_a_timeout_is_scheduled_when_created(kernel):
    sim = kernel.Simulator()
    sim.run(until=0.5)
    before = sim._sequence
    timeout = sim.timeout(2.0, value="v")
    assert timeout.triggered
    assert sim._sequence == before + 1
    seen = []
    timeout.add_callback(lambda event: seen.append((sim.now, event.value)))
    sim.run(until=10.0)
    assert seen == [(2.5, "v")]


@KERNELS
def test_rule_2_succeed_and_fail_schedule_the_event_for_now(kernel):
    sim = kernel.Simulator()
    sim.run(until=1.0)
    good, bad = kernel.Event(sim), kernel.Event(sim)
    seen = []
    for event in (good, bad):
        event.add_callback(lambda event: seen.append((sim.now, event.ok)))
    good.succeed("x")
    bad.fail(RuntimeError("no"))
    assert seen == []  # the consumers wait for the run loop
    sim.run(until=5.0)
    assert seen == [(1.0, True), (1.0, False)]


@KERNELS
def test_rule_3_a_new_process_starts_from_one_wakeup_for_now(kernel):
    sim = kernel.Simulator()
    log = []

    def body():
        log.append(("started", sim.now))
        yield sim.timeout(1.0)

    sim.timeout(0.0).add_callback(lambda _e: log.append(("earlier", sim.now)))
    before = sim._sequence
    sim.process(body())
    assert sim._sequence == before + 1
    assert log == []
    sim.run(until=5.0)
    assert log == [("earlier", 0.0), ("started", 0.0)]


@KERNELS
def test_rule_4_consumers_run_in_registration_order(kernel):
    sim = kernel.Simulator()
    event = kernel.Event(sim)
    log = []

    def waiter(name):
        yield event
        log.append(name)

    # registration happens at the start-up wake-ups, in this order
    sim.process(waiter("first process"))
    sim.timeout(0.0).add_callback(lambda _e: event.add_callback(lambda _e: log.append("callback")))
    sim.process(waiter("second process"))
    sim.timeout(1.0).add_callback(lambda _e: event.succeed())
    sim.run(until=5.0)
    assert log == ["first process", "callback", "second process"]


@KERNELS
def test_rule_4_a_consumer_removed_before_its_turn_does_not_run(kernel):
    sim = kernel.Simulator()
    event = kernel.Event(sim)
    log = []

    def second(_event):
        log.append("second")

    def first(_event):
        log.append("first")
        event.remove_callback(second)

    event.add_callback(first)
    event.add_callback(second)
    event.add_callback(lambda _e: log.append("third"))
    event.succeed()
    sim.run(until=1.0)
    assert log == ["first", "third"]


@KERNELS
def test_rule_4_a_consumer_of_a_processed_event_runs_at_once(kernel):
    sim = kernel.Simulator()
    event = kernel.Event(sim).succeed("v")
    sim.run(until=1.0)
    before = sim._sequence
    seen = []
    event.add_callback(lambda event: seen.append((sim.now, event.value)))
    assert seen == [(1.0, "v")]
    assert sim._sequence == before


@KERNELS
def test_rule_5_an_interrupt_detaches_at_once_and_throws_at_a_wakeup_for_now(kernel):
    sim = kernel.Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(1.0, value="abandoned")
            log.append("resumed by the abandoned timeout")
        except kernel.Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))
        value = yield sim.timeout(1.0, value="next")
        log.append(("resumed", sim.now, value))

    # scheduled before the victim's timeout, so it interrupts first at t=1
    sim.timeout(1.0).add_callback(lambda _e: process.interrupt("stop"))
    process = sim.process(victim())
    sim.run(until=5.0)
    assert log == [("interrupted", 1.0, "stop"), ("resumed", 2.0, "next")]


@KERNELS
def test_rule_5_a_second_interrupt_detaches_the_target_registered_since(kernel):
    sim = kernel.Simulator()
    log = []

    def victim():
        for _ in range(2):
            try:
                yield sim.timeout(5.0, value="abandoned")
            except kernel.Interrupt as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))
        # outlasts the timeout abandoned by the second interrupt
        value = yield sim.timeout(10.0, value="last")
        log.append(("resumed", sim.now, value))

    def interrupt_twice(_event):
        process.interrupt("a")
        process.interrupt("b")

    process = sim.process(victim())
    sim.timeout(1.0).add_callback(interrupt_twice)
    sim.run(until=20.0)
    assert log == [("interrupted", 1.0, "a"), ("interrupted", 1.0, "b"),
                   ("resumed", 11.0, "last")]


@KERNELS
def test_rule_5_a_wakeup_for_a_finished_process_is_dropped(kernel):
    sim = kernel.Simulator()
    log = []

    def quick():
        log.append("ran")
        return "done"
        yield  # pragma: no cover - makes this a generator

    process = sim.process(quick())
    process.interrupt("too late")  # queued behind the start-up wake-up
    sim.run(until=1.0)
    assert log == ["ran"]
    assert process.ok
    assert process.value == "done"


@KERNELS
def test_rule_6_a_returning_process_schedules_its_completion_for_now(kernel):
    sim = kernel.Simulator()
    log = []

    def child():
        timeout = sim.timeout(1.0)
        sim.timeout(1.0).add_callback(lambda _e: log.append((sim.now, "after the child's timeout")))
        yield timeout
        return "child value"

    def parent():
        value = yield sim.process(child())
        log.append((sim.now, value))

    sim.process(parent())
    sim.run(until=5.0)
    assert log == [(1.0, "after the child's timeout"), (1.0, "child value")]


@KERNELS
def test_rule_7_every_visit_is_one_entry_numbered_when_made(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    before = sim._sequence
    resource.visit(1.0, 1.0)
    assert sim._sequence == before + 1  # a free server: the end of the visit
    resource.visit(1.0, 1.0)
    assert sim._sequence == before + 2  # queued: its end is known too
    assert (resource.in_use, resource.queue_length) == (1, 1)
    assert len(sim._queue) == 2


@KERNELS
def test_rule_7_visits_start_in_order_at_the_earliest_free_server(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 2)
    log = []
    draws = ScriptedDraws(record=lambda entry: log.append(entry + (sim.now,)))

    def visitor(name):
        # both holders release at t=1; each release starts one queued visit
        visit = resource.visit(1.0, 5.0, draws)
        yield visit
        log.append((name, visit.start, sim.now))

    for name in ("held 0", "held 1", "queued 0", "queued 1", "queued 2"):
        sim.process(visitor(name))
    sim.run(until=0.75)
    assert (resource.in_use, resource.queue_length) == (2, 3)
    assert log == [("drawn", 1.0, 0.0)] * 5  # every variate is read when its visit is made
    sim.run(until=1.25)
    assert (resource.in_use, resource.queue_length) == (2, 1)
    sim.run(until=10.0)
    assert log[5:] == [("held 0", 0.0, 6.0), ("held 1", 0.0, 6.0), ("queued 0", 1.0, 7.0),
                       ("queued 1", 1.0, 7.0), ("queued 2", 2.0, 8.0)]


@KERNELS
def test_rule_7_a_visit_draws_when_made_and_holds_its_server_until_its_release(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    log = []
    # demand 1, drawn as 2, then a delay of 3
    draws = ScriptedDraws((2.0,), record=lambda entry: log.append(entry + (sim.now,)))

    def visitor():
        before = sim._sequence
        visit = resource.visit(1.0, 3.0, draws)
        log.append(("made", sim.now, visit.triggered, resource.in_use))
        value = yield visit
        log.append(("resumed", sim.now, value, resource.in_use, sim._sequence - before))

    sim.process(visitor())
    for at in (1.5, 2.0, 2.5):
        sim.timeout(at).add_callback(lambda _e: log.append(("held", sim.now, resource.in_use)))
    sim.run(until=10.0)
    # at t=2, its release instant, the server no longer counts as held
    assert log == [("drawn", 2.0, 0.0), ("made", 0.0, True, 1), ("held", 1.5, 1), ("held", 2.0, 0),
                   ("held", 2.5, 0), ("resumed", 5.0, None, 0, 1)]


@KERNELS
def test_rule_7_equal_ends_run_in_the_order_the_visits_were_made(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 2)
    log = []

    def visitor(name, demand, delay):
        yield resource.visit(demand, delay)
        log.append((name, sim.now))

    # all three end at t=2; the second visit releases its server first, at
    # t=0.5, but it was made after the first
    sim.process(visitor("made first", 1.5, 0.5))
    sim.process(visitor("made second", 0.5, 1.5))
    sim.timeout(1.0).add_callback(
        lambda _e: sim.timeout(1.0).add_callback(lambda _e: log.append(("timeout", sim.now))))
    sim.run(until=5.0)
    assert log == [("made first", 2.0), ("made second", 2.0), ("timeout", 2.0)]


@KERNELS
def test_rule_7_a_zero_demand_and_delay_end_the_visit_at_its_entry_for_now(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    log = []

    def visitor():
        sim.timeout(0.0).add_callback(lambda _e: log.append(("due first", sim.now)))
        before = sim._sequence
        visit = resource.visit(0.0, 0.0)
        log.append(("made", visit.triggered, resource.in_use))
        # scheduled right after the visit is made, for the same time
        sim.timeout(0.0).add_callback(lambda _e: log.append(("after the visit", sim.now)))
        yield visit
        log.append(("resumed", sim.now, sim._sequence - before))

    sim.process(visitor())
    sim.run(until=1.0)
    assert log == [("made", True, 0), ("due first", 0.0), ("resumed", 0.0, 2),
                   ("after the visit", 0.0)]


@KERNELS
def test_rule_7_cancel_removes_a_queued_visit_and_releases_a_held_one(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    visits = {}
    ended = []

    def visitor(name):
        visits[name] = resource.visit(1.0, 1.0)
        yield visits[name]
        ended.append((name, sim.now))

    for name in ("held", "cancelled", "last"):
        sim.process(visitor(name))
    sim.run(until=0.5)
    assert (resource.in_use, resource.queue_length) == (1, 2)
    sequence, pending = sim._sequence, len(sim._queue)
    resource.cancel(visits["cancelled"])
    assert (resource.in_use, resource.queue_length) == (1, 1)
    resource.cancel(visits["held"])
    # no entry made, two taken off; the last visit now starts at t=0.5
    assert (sim._sequence, len(sim._queue)) == (sequence, pending - 2)
    assert (resource.in_use, resource.queue_length) == (1, 0)
    assert not visits["held"].triggered and not visits["cancelled"].triggered
    resource.cancel(visits["held"])  # a second cancel changes nothing
    assert (resource.in_use, resource.queue_length) == (1, 0)
    sim.run(until=10.0)
    assert ended == [("last", 2.5)]


@KERNELS
def test_rule_7_a_visit_cancelled_before_it_starts_passes_its_variate_on(kernel):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    returned = []
    draws = ScriptedDraws((1.0, 2.0, 3.0, 4.0), record=returned.append)
    visits = [resource.visit(1.0, 0.0, draws),   # holds the server, reads 1
              resource.visit(1.0, 0.0, draws),   # reads 2, cancelled while it waits
              resource.visit(1.0, 0.0, draws),   # reads 3
              resource.visit(5.0, 0.0),          # no variate
              resource.visit(0.5, 0.0, draws)]   # reads 4
    resource.cancel(visits[1])
    # the variates move up one drawing visit, and the last one returns
    assert [(visit.start, visit.finish) for visit in visits[2:]] == [(1.0, 3.0), (3.0, 8.0), (8.0, 9.5)]
    assert returned[-1] == ("returned", 4.0)
    assert resource.visit(1.0, 0.0, draws).finish == 13.5


#: the victim's stage when it is interrupted -> (the instant, the visits
#: ahead of it, the log)
INTERRUPTED = {
    # another visit holds the server until t=2, so the victim waits: its
    # variate returns to the reader
    "waiting": (1.0, ["ahead"], [
        ("drawn", 1.0, 0.0), ("drawn", 1.0, 0.0), ("returned", 1.0, 1.0),
        ("interrupted", 1.0, 1, 0, False), ("ended", "ahead", 2.0)]),
    # interrupted at t=2, the instant the visit ahead releases its server:
    # the victim starts then, so it has not started, and its variate returns
    "starting": (2.0, ["ahead"], [
        ("drawn", 1.0, 0.0), ("drawn", 1.0, 0.0), ("ended", "ahead", 2.0),
        ("returned", 1.0, 2.0), ("interrupted", 2.0, 0, 0, False)]),
    "served": (0.5, [], [("drawn", 1.0, 0.0), ("interrupted", 0.5, 0, 0, False)]),
    # interrupted at t=1, the instant it releases its server: it is in its
    # delay, and the cancel leaves it alone
    "releasing": (1.0, [], [("drawn", 1.0, 0.0), ("interrupted", 1.0, 0, 0, True)]),
    "delayed": (2.0, [], [("drawn", 1.0, 0.0), ("interrupted", 2.0, 0, 0, True)]),
}


@KERNELS
@pytest.mark.parametrize("stage", INTERRUPTED)
def test_rule_7_an_interrupted_visitor_cancels_its_visit(kernel, stage):
    sim = kernel.Simulator()
    resource = kernel.Resource(sim, 1)
    at, others, expected = INTERRUPTED[stage]
    log = []
    draws = ScriptedDraws(record=lambda entry: log.append(entry + (sim.now,)))

    def other(name):
        yield resource.visit(2.0, 0.0, draws)
        log.append(("ended", name, sim.now))

    def victim():
        visit = resource.visit(1.0, 2.0, draws)
        try:
            yield visit
            log.append(("ended", "victim", sim.now))
        except kernel.Interrupt:
            resource.cancel(visit)
            log.append(("interrupted", sim.now, resource.in_use, resource.queue_length,
                        visit.triggered))

    for name in others:
        sim.process(other(name))
    process = sim.process(victim())
    # scheduled before every visit is made: at t=1 and t=2 the interrupt
    # comes before the visit ends that are due then
    sim.timeout(at).add_callback(lambda _e: process.interrupt("displaced"))
    sim.run(until=10.0)
    assert log == expected
    assert (resource.in_use, resource.queue_length) == (0, 0)
