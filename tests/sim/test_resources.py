"""Tests for FCFS resources."""

import pytest

from timed_call import call_at

from repro.sim.engine import Interrupt, SimulationError, Simulator
from repro.sim.resources import Resource


class TestResourceBasics:
    def test_capacity_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_grant_immediately_when_capacity_available(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        first = resource.request()
        second = resource.request()
        assert first.granted and second.granted
        assert resource.in_use == 2
        assert resource.queue_length == 0

    def test_requests_beyond_capacity_wait(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        assert first.granted
        assert not second.granted
        assert resource.queue_length == 1

    def test_release_grants_next_waiter_fcfs(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(first)
        assert second.granted
        assert not third.granted
        resource.release(second)
        assert third.granted

    def test_double_release_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        request = resource.request()
        resource.release(request)
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_cancel_waiting_request_is_skipped(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        waiting_a = resource.request()
        waiting_b = resource.request()
        waiting_a.cancel()
        resource.release(holder)
        assert not waiting_a.granted
        assert waiting_b.granted

    def test_cancel_granted_request_releases(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        waiter = resource.request()
        holder.cancel()
        assert waiter.granted
        assert resource.in_use == 1

    def test_cancel_twice_is_noop(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        holder.cancel()
        holder.cancel()
        assert resource.in_use == 0


class TestResourceInProcesses:
    def test_serialised_use_with_single_server(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        completions = []

        def worker(name):
            request = resource.request()
            yield request
            yield sim.timeout(2.0)
            resource.release(request)
            completions.append((name, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.process(worker("c"))
        sim.run(until=10.0)
        assert completions == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_parallel_use_with_multiple_servers(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)
        completions = []

        def worker(name):
            request = resource.request()
            yield request
            yield sim.timeout(2.0)
            resource.release(request)
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
            request = resource.request()
            yield request
            yield sim.timeout(10.0)
            resource.release(request)

        def impatient():
            request = resource.request()
            try:
                yield request
            except Interrupt:
                request.cancel()
                outcomes.append("gave up")
                return
            resource.release(request)
            outcomes.append("served")

        sim.process(holder())
        impatient_process = sim.process(impatient())
        call_at(sim, 2.0, lambda: impatient_process.interrupt())
        sim.run(until=20.0)
        assert outcomes == ["gave up"]
        assert resource.queue_length == 0
        # the resource must still be usable afterwards
        assert resource.in_use == 0

    def test_utilisation_of_single_server(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            request = resource.request()
            yield request
            yield sim.timeout(4.0)
            resource.release(request)

        sim.process(worker())
        sim.run(until=8.0)
        assert resource.utilisation() == pytest.approx(0.5)

    def test_reset_statistics(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            request = resource.request()
            yield request
            yield sim.timeout(4.0)
            resource.release(request)

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
            request = resource.request()
            yield request
            yield sim.timeout(4.0)
            resource.release(request)

        sim.process(worker())
        sim.run(until=4.0)
        resource.reset_statistics()
        sim.run(until=8.0)
        assert resource.utilisation() == pytest.approx(1.0)
