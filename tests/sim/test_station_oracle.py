"""The station computed on arrival against the event-driven station it replaced.

``event_station.Resource`` runs each visit's grant, service completion and
delay as events and draws the service time when the grant comes due;
:class:`repro.sim.resources.Resource` computes the visit when it is made.
On scripts whose instants never tie by accident -- think times, demands,
delays and displacement instants all continuous -- the two must agree
exactly: every visit served for the same drawn time and resumed at the
same instant, every ``in_use``/``queue_length`` read equal, and every
``utilisation()`` read equal to the bit.

The scripts follow the transaction model.  Actors think, visit the station
with a demand scaled by a variate of the ``cpu-demand`` reader and a disk
delay (now and then zero), and cancel their latest visit when interrupted.
A displacer interrupts one to four actors at one instant, so the cancels
find visits waiting, in service, in their delay or over, and handed a
server at the cancel instant by the cancel of the victim ahead (the old
station's grant then waits behind the victim's wake-up and draws nothing).
A sampler reads the station now and then and resets its statistics once,
as the end of warm-up does.
"""

import random
from collections import Counter

import event_station
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import resources
from repro.sim.engine import Interrupt, Simulator
from repro.sim.random_streams import RandomStreams
from repro.tp.workload import ExponentialDraws

#: examples per run in tier-1; the ``ci`` profile of ``conftest.py`` runs more
TIER1_EXAMPLES = 300
HORIZON = 5.0
#: the phases' CPU means, as in ``contention_bound_params``
MEANS = (0.04, 0.001, 0.005)


def make_script(seed, capacity, n_actors):
    """A random script: per actor its steps, the displacements and the sampler's gaps."""
    rng = random.Random(seed)
    actors = [[(rng.expovariate(20.0), rng.choice(MEANS) * rng.uniform(0.5, 4.0),
                0.0 if rng.random() < 0.1 else rng.uniform(0.001, 0.2))
               for _ in range(rng.randint(2, 24))]
              for _ in range(n_actors)]
    displacements = [(rng.expovariate(5.0), rng.sample(range(n_actors), rng.randint(1, min(4, n_actors))))
                     for _ in range(rng.randint(0, 24))]
    reads = [rng.expovariate(2.0) for _ in range(rng.randint(1, 6))]
    return seed, capacity, actors, displacements, reads


def cancel_kind(visit, now):
    """Where a cancel at ``now`` finds a visit of the station computed on arrival."""
    if visit.finish <= now:
        return "left"
    if visit.start > now:
        return "waiting"
    return "starting" if visit.start == now else "in service"


def run(station_type, script):
    """Run ``script`` on a station; return per-visit outcomes, the reads and the cancels."""
    seed, capacity, actors, displacements, reads = script
    sim = Simulator()
    station = station_type(sim, capacity)
    reader = ExponentialDraws(RandomStreams(seed), "cpu-demand")
    on_arrival = station_type is resources.Resource
    visits = {}
    drawn = {}
    cut = {}
    resumed = {}
    samples = []
    cancels = Counter()
    processes = []

    def drawer(key):
        def draw(mean):
            drawn[key] = reader.draw(mean)
            return drawn[key]
        return draw

    def actor(index, steps):
        visit = None
        for step, (think, mean, delay) in enumerate(steps):
            key = (index, step)
            try:
                yield sim.timeout(think)
                visit = station.visit(mean, delay, reader if on_arrival else drawer(key))
                visits[key] = visit
                yield visit
                resumed[key] = sim.now
            except Interrupt:
                # like a displaced transaction: withdraw the latest visit,
                # wherever it is, and go on with the next step
                if visit is not None:
                    if on_arrival:
                        kind = cancel_kind(visit, sim.now)
                        cancels[kind] += 1
                        if kind == "in service":
                            # the cancel leaves the visit with no service
                            cut[visit] = visit.demand * visit.variate
                    station.cancel(visit)

    def displacer():
        for gap, victims in displacements:
            yield sim.timeout(gap)
            for victim in victims:
                if processes[victim].is_alive:
                    processes[victim].interrupt("displaced")

    def sampler():
        for index, gap in enumerate(reads):
            yield sim.timeout(gap)
            samples.append((sim.now, station.in_use, station.queue_length, station.utilisation()))
            if index == 0:
                station.reset_statistics()

    for index, steps in enumerate(actors):
        processes.append(sim.process(actor(index, steps)))
    sim.process(displacer())
    sim.process(sampler())
    sim.run(until=HORIZON)
    samples.append((sim.now, station.in_use, station.queue_length, station.utilisation()))
    if on_arrival:
        # a visit still waiting at the end has read its variate, where the
        # event-driven station had not yet drawn
        served = {key: cut[visit] if visit in cut
                  else None if visit.variate is None or visit.start > sim.now
                  else visit.demand * visit.variate
                  for key, visit in visits.items()}
    else:
        served = {key: drawn.get(key) for key in visits}
    outcomes = {key: (served[key], resumed.get(key)) for key in visits}
    return outcomes, samples, cancels


SCRIPTS = st.builds(make_script, st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 10))


@settings(max_examples=max(TIER1_EXAMPLES, settings.default.max_examples), deadline=None)
@given(SCRIPTS)
def test_the_station_matches_the_event_driven_one(script):
    expected_outcomes, expected_samples, _ = run(event_station.Resource, script)
    outcomes, samples, _ = run(resources.Resource, script)
    for key, expected in expected_outcomes.items():
        assert outcomes[key] == expected, key
    assert outcomes.keys() == expected_outcomes.keys()
    assert samples == expected_samples


def test_the_scripts_cancel_visits_in_every_stage():
    cancels = Counter()
    for seed in range(40):
        script = make_script(seed, 1 + seed % 4, 2 + seed % 9)
        cancels += run(resources.Resource, script)[2]
    # "starting": handed a server at the cancel instant by the victim ahead
    assert {"waiting", "starting", "in service", "left"} <= {kind for kind, count in cancels.items() if count}
