"""Tests for FCFS resources and their station visits."""

import pytest

from scripted_draws import ScriptedDraws
from timed_call import call_at

from repro.sim.engine import Interrupt, Simulator
from repro.sim.resources import Resource


class TestResourceBasics:
    def test_capacity_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_negative_demand_or_delay_is_rejected(self):
        resource = Resource(Simulator(), capacity=1)
        with pytest.raises(ValueError):
            resource.visit(-1.0, 0.0)
        with pytest.raises(ValueError):
            resource.visit(0.0, -1.0)
        assert (resource.in_use, resource.queue_length) == (0, 0)

    def test_grant_immediately_when_capacity_available(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        resource.visit(1.0, 0.0)
        resource.visit(1.0, 0.0)
        assert resource.in_use == 2
        assert resource.queue_length == 0

    def test_visits_beyond_capacity_wait(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resource.visit(1.0, 0.0)
        resource.visit(1.0, 0.0)
        assert resource.in_use == 1
        assert resource.queue_length == 1

    def test_release_starts_next_waiter_fcfs(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        drawn = []
        draws = ScriptedDraws(record=lambda entry: drawn.append(sim.now))
        visits = {}

        def visitor(name):
            visits[name] = resource.visit(1.0, 0.0, draws)
            yield visits[name]

        for name in "abc":
            sim.process(visitor(name))
        sim.run(until=1.5)
        assert drawn == [0.0, 0.0, 0.0]  # read when each visit is made
        assert [visits[name].start for name in "abc"] == [0.0, 1.0, 2.0]
        assert resource.queue_length == 1
        sim.run(until=2.5)
        assert resource.queue_length == 0

    def test_cancel_waiting_visit_is_skipped(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        visits = {}
        ended = []

        def visitor(name):
            visits[name] = resource.visit(1.0, 0.0)
            yield visits[name]
            ended.append(name)

        for name in ("holder", "waiting a", "waiting b"):
            sim.process(visitor(name))
        sim.run(until=0.5)
        resource.cancel(visits["waiting a"])
        assert resource.queue_length == 1
        sim.run(until=5.0)
        assert ended == ["holder", "waiting b"]
        assert resource.queue_length == 0

    def test_cancel_granted_visit_releases(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.visit(1.0, 0.0)
        resource.visit(1.0, 0.0)
        resource.cancel(holder)
        assert resource.in_use == 1
        assert resource.queue_length == 0

    def test_cancel_twice_is_noop(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.visit(1.0, 0.0)
        resource.cancel(holder)
        resource.cancel(holder)
        assert resource.in_use == 0

    def test_cancel_after_the_release_is_noop(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        visits = {}
        ended = []

        def visitor(name, start, delay):
            yield sim.timeout(start)
            visits[name] = resource.visit(1.0, delay)
            yield visits[name]
            ended.append((name, sim.now))

        sim.process(visitor("first", 0.0, 5.0))
        sim.process(visitor("second", 2.0, 0.0))
        sim.run(until=2.5)  # the first released at t=1 and is in its delay
        assert resource.in_use == 1  # held by the second
        resource.cancel(visits["first"])
        assert resource.in_use == 1
        sim.run(until=10.0)
        assert ended == [("second", 3.0), ("first", 6.0)]


class TestResourceInProcesses:
    def test_serialised_use_with_single_server(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        completions = []

        def worker(name):
            yield resource.visit(2.0, 0.0)
            completions.append((name, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.process(worker("c"))
        sim.run(until=10.0)
        assert completions == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_the_delay_follows_the_release(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        completions = []

        def worker(name):
            yield resource.visit(2.0, 3.0)
            completions.append((name, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run(until=10.0)
        # b is served from t=2, while a waits out its delay
        assert completions == [("a", 5.0), ("b", 7.0)]

    def test_parallel_use_with_multiple_servers(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)
        completions = []

        def worker(name):
            yield resource.visit(2.0, 0.0)
            completions.append((name, sim.now))

        for name in "abc":
            sim.process(worker(name))
        sim.run(until=10.0)
        assert [time for _name, time in completions] == [2.0, 2.0, 2.0]

    def test_interrupted_waiter_can_cancel_cleanly(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        outcomes = []

        def holder():
            yield resource.visit(10.0, 0.0)

        def impatient():
            visit = resource.visit(1.0, 0.0)
            try:
                yield visit
            except Interrupt:
                resource.cancel(visit)
                outcomes.append("gave up")
                return
            outcomes.append("served")

        sim.process(holder())
        impatient_process = sim.process(impatient())
        call_at(sim, 2.0, lambda: impatient_process.interrupt())
        sim.run(until=20.0)
        assert outcomes == ["gave up"]
        assert resource.queue_length == 0
        # the resource must still be usable afterwards
        assert resource.in_use == 0

    def test_interrupted_holder_releases_at_the_interrupt(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        served = []

        def holder():
            visit = resource.visit(10.0, 0.0)
            try:
                yield visit
            except Interrupt:
                resource.cancel(visit)

        def next_in_line():
            yield resource.visit(1.0, 0.0)
            served.append(sim.now)

        holder_process = sim.process(holder())
        sim.process(next_in_line())
        call_at(sim, 2.0, lambda: holder_process.interrupt())
        sim.run(until=20.0)
        assert served == [3.0]
        assert resource.in_use == 0

    def test_utilisation_of_single_server(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield resource.visit(4.0, 0.0)

        sim.process(worker())
        sim.run(until=8.0)
        assert resource.utilisation() == pytest.approx(0.5)

    def test_the_delay_is_not_busy_time(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield resource.visit(2.0, 4.0)

        sim.process(worker())
        sim.run(until=8.0)
        assert resource.utilisation() == pytest.approx(0.25)

    def test_reset_statistics(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield resource.visit(4.0, 0.0)

        sim.process(worker())
        sim.run(until=4.0)
        resource.reset_statistics()
        sim.run(until=8.0)
        # idle after the reset: the rebound window reads as zero utilisation
        assert resource.utilisation() == pytest.approx(0.0)

    def test_reset_statistics_binds_rate_window(self):
        """Regression: the rate denominator starts at the reset instant.

        The server is idle for the first half of the run and fully busy
        after the reset.  Pre-fix, ``utilisation()`` divided the post-reset
        busy integral by the whole run (``since`` defaulted to 0.0), which
        reported 0.5 here instead of 1.0.
        """
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield sim.timeout(4.0)
            yield resource.visit(4.0, 0.0)

        sim.process(worker())
        sim.run(until=4.0)
        resource.reset_statistics()
        sim.run(until=8.0)
        assert resource.utilisation() == pytest.approx(1.0)
