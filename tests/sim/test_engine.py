"""Tests for the discrete-event simulation kernel."""

import pytest

from timed_call import call_at

from repro.sim.engine import Event, Interrupt, Process, SimulationError, Simulator


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_the_past_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        call_at(sim, 3.0, lambda: order.append("late"))
        call_at(sim, 1.0, lambda: order.append("early"))
        call_at(sim, 2.0, lambda: order.append("middle"))
        sim.run(until=5.0)
        assert order == ["early", "middle", "late"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        call_at(sim, 1.0, lambda: order.append("first"))
        call_at(sim, 1.0, lambda: order.append("second"))
        sim.run(until=2.0)
        assert order == ["first", "second"]

    def test_run_stops_exactly_at_until(self):
        sim = Simulator()
        fired = []
        call_at(sim, 10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run(until=20.0)
        assert fired



class TestEvent:
    def test_succeed_sets_value(self):
        sim = Simulator()
        event = Event(sim)
        event.succeed(99)
        sim.run(until=0.0)
        assert event.ok
        assert event.value == 99

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        event = Event(sim)
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_raises(self):
        sim = Simulator()
        event = Event(sim)
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_records_exception(self):
        sim = Simulator()
        event = Event(sim)
        error = RuntimeError("boom")
        event.fail(error)
        sim.run(until=0.0)
        assert not event.ok
        assert event.exception is error
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        event = Event(sim)
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        event = Event(sim)
        event.succeed("x")
        sim.run(until=0.0)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_timeout_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_fires_at_the_right_time(self):
        sim = Simulator()
        times = []
        timeout = sim.timeout(2.5)
        timeout.add_callback(lambda _e: times.append(sim.now))
        sim.run(until=5.0)
        assert times == [pytest.approx(2.5)]


class TestProcess:
    def test_process_runs_and_returns_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"

        process = sim.process(worker())
        sim.run(until=10.0)
        assert not process.is_alive
        assert process.value == "done"
        assert sim.now == 10.0

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_processes_interleave_by_time(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.process(worker("fast", 1.0))
        sim.process(worker("slow", 2.5))
        sim.run(until=10.0)
        assert log == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
            ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
        ]

    def test_process_can_wait_on_another_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        parent_process = sim.process(parent())
        sim.run(until=10.0)
        assert parent_process.value == 14

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert not process.is_alive
        assert isinstance(process.exception, SimulationError)

    def test_yielding_foreign_event_fails_process(self):
        sim = Simulator()
        other = Simulator()

        def bad():
            yield other.timeout(1.0)

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert isinstance(process.exception, SimulationError)

    def test_exception_in_process_propagates_by_default(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inner failure")

        process = sim.process(bad())
        with pytest.raises(ValueError, match="inner failure"):
            sim.run(until=2.0)
        # the failure is also recorded on the completion event
        assert not process.is_alive
        assert isinstance(process.exception, ValueError)

    def test_failed_event_is_thrown_into_process(self):
        sim = Simulator()
        trigger = Event(sim)
        caught = []

        def worker():
            try:
                yield trigger
            except RuntimeError as error:
                caught.append(str(error))

        sim.process(worker())
        call_at(sim, 1.0, lambda: trigger.fail(RuntimeError("failed event")))
        sim.run(until=2.0)
        assert caught == ["failed event"]


class TestClose:
    def test_close_detaches_closes_the_generator_and_clear_drops_the_queue(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
                log.append("resumed")
            finally:
                log.append("closed")

        process = sim.process(sleeper())
        sim.run(until=1.0)
        target = process._target
        process.close()
        assert log == ["closed"]
        assert process._target is None and target._waiter is None
        assert process.generator.gi_frame is None
        sim.clear()
        sim.run(until=10.0)
        assert log == ["closed"]
        assert sim._queue == []


class TestInterrupt:
    def test_interrupt_wakes_process_with_cause(self):
        sim = Simulator()
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        process = sim.process(sleeper())
        call_at(sim, 1.0, lambda: process.interrupt("wake up"))
        sim.run(until=5.0)
        assert causes == ["wake up"]
        assert sim.now == 5.0

    def test_interrupt_terminated_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        process = sim.process(quick())
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_unhandled_interrupt_fails_the_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        process = sim.process(sleeper())
        call_at(sim, 1.0, lambda: process.interrupt("no handler"))
        sim.run(until=5.0)
        assert not process.is_alive
        assert isinstance(process.exception, Interrupt)

    def test_process_continues_after_handling_interrupt(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(2.0)
            log.append(("resumed", sim.now))

        process = sim.process(sleeper())
        call_at(sim, 3.0, lambda: process.interrupt())
        sim.run(until=10.0)
        assert log == [("interrupted", 3.0), ("resumed", 5.0)]

    def test_interrupt_before_a_pending_wakeup_abandons_the_next_target(self):
        """Rule 5: the interrupt overtakes the start-up wake-up.

        The process registers on its first timeout when it starts, after
        the interrupt; the interrupt wake-up must detach it from that
        timeout, or the abandoned timeout resumes it at t=1.
        """
        sim = Simulator()
        log = []

        def victim():
            try:
                yield sim.timeout(1.0)
            except Interrupt:
                log.append(("interrupted", sim.now))
            value = yield sim.timeout(5.0, value="T2")
            log.append(("resumed", sim.now, value))

        sim.process(victim()).interrupt("early")
        sim.run(until=10.0)
        assert log == [("interrupted", 0.0), ("resumed", 5.0, "T2")]

    @pytest.mark.parametrize("callback_first", [False, True],
                             ids=["waiter-first", "callback-first"])
    def test_peer_interrupt_abandons_a_shared_event(self, callback_first):
        """Rule 4: a consumer removed before its turn does not run.

        Two processes wait on one event; when it fires, the first interrupts
        the second.  Whether an unrelated callback registered first (as the
        isolation recorder does on lock grants) must not matter.
        """
        sim = Simulator()
        shared = Event(sim)
        log = []
        if callback_first:
            shared.add_callback(lambda _event: None)

        def first():
            yield shared
            second_process.interrupt("peer")

        def second():
            try:
                value = yield shared
                log.append(("resumed", sim.now, value))
            except Interrupt:
                log.append(("interrupted", sim.now))

        sim.process(first())
        second_process = sim.process(second())
        call_at(sim, 1.0, lambda: shared.succeed("fired"))
        sim.run(until=5.0)
        assert log == [("interrupted", 1.0)]

class TestTieBreakContract:
    """The documented equal-timestamp ordering contract.

    Heap entries are ``(time, sequence, event)`` with a monotonic sequence
    counter assigned at scheduling time: events scheduled at the same
    simulation time process strictly in schedule order.  This is an explicit
    contract (not an accident of list insertion order) and the golden
    trajectories depend on it.
    """

    def test_two_events_at_same_time_process_in_schedule_order(self):
        sim = Simulator()
        order = []
        first = Event(sim)
        second = Event(sim)
        # triggered (= scheduled) in this order, both at t=0
        first.succeed("first")
        second.succeed("second")
        first.add_callback(lambda e: order.append(e.value))
        second.add_callback(lambda e: order.append(e.value))
        sim.run(until=0.0)
        assert order == ["first", "second"]

    def test_mixed_event_kinds_share_one_sequence(self):
        """Timeouts, plain events and process wakeups obey one global order."""
        sim = Simulator()
        order = []

        def proc():
            order.append("process-bootstrap")
            yield sim.timeout(1.0)
            order.append("process-timeout")

        timeout_a = sim.timeout(1.0)          # scheduled 1st for t=1
        sim.process(proc())                   # bootstrap scheduled 2nd for t=0
        event = Event(sim).succeed(None)     # scheduled 3rd for t=0
        timeout_b = sim.timeout(1.0)          # scheduled 4th for t=1
        timeout_a.add_callback(lambda _e: order.append("timeout-a"))
        event.add_callback(lambda _e: order.append("plain-event"))
        timeout_b.add_callback(lambda _e: order.append("timeout-b"))
        sim.run(until=2.0)
        # t=0: bootstrap precedes the plain event (scheduled earlier).
        # t=1: timeout-a first, then timeout-b, then the process's nap --
        # the nap was only scheduled when the bootstrap ran at t=0, which is
        # after both timeouts had already been created.
        assert order == ["process-bootstrap", "plain-event",
                         "timeout-a", "timeout-b", "process-timeout"]

    def test_sequence_counter_is_monotonic(self):
        sim = Simulator()
        before = sim._sequence
        sim.timeout(0.5)
        sim.timeout(0.5)
        Event(sim).succeed()
        assert sim._sequence == before + 3

    def test_schedule_order_preserved_across_heap_reshuffles(self):
        """Many equal timestamps interleaved with earlier/later events."""
        sim = Simulator()
        fired = []
        # build a deliberately adversarial creation order for the heap
        for index, delay in enumerate([5.0, 1.0, 5.0, 3.0, 5.0, 1.0, 5.0]):
            call_at(sim, delay, lambda i=index, d=delay: fired.append((d, i)))
        sim.run(until=10.0)
        assert fired == [(1.0, 1), (1.0, 5), (3.0, 3),
                         (5.0, 0), (5.0, 2), (5.0, 4), (5.0, 6)]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(name, delay):
                while sim.now < 20.0:
                    yield sim.timeout(delay)
                    trace.append((name, round(sim.now, 9)))

            sim.process(worker("a", 0.7))
            sim.process(worker("b", 1.3))
            sim.run(until=25.0)
            return trace

        assert build_and_run() == build_and_run()
