"""The arrival-model layer: open and partly-open sources."""

import math
import pickle

import pytest

from repro.sim.random_streams import RandomStreams
from repro.tp.arrivals import (
    INTERARRIVAL_STREAM,
    SESSION_SIZE_STREAM,
    THINNING_STREAM,
    OpenArrivals,
    PartlyOpenArrivals,
)
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem
from repro.tp.workload import (
    ConstantSchedule,
    ExponentialDraws,
    JumpSchedule,
    ParameterSchedule,
    SinusoidSchedule,
    StepSchedule,
    UniformDraws,
)


def arrival_draws(streams):
    """The gap and thinning readers of ``streams``, as the arrival source makes them."""
    return ExponentialDraws(streams, INTERARRIVAL_STREAM), UniformDraws(streams, THINNING_STREAM)


def small_params(**overrides):
    """A tiny configuration that runs in milliseconds."""
    defaults = dict(
        n_terminals=20,
        think_time=0.2,
        n_cpus=2,
        cpu_init=0.002,
        cpu_per_access=0.002,
        cpu_commit=0.002,
        disk_per_access=0.005,
        disk_commit=0.005,
        restart_delay=0.005,
        seed=42,
        workload=WorkloadParams(db_size=200, accesses_per_txn=4,
                                query_fraction=0.25, write_fraction=0.5),
    )
    defaults.update(overrides)
    return SystemParams(**defaults)


class TestScheduleUpperBound:
    def test_constant(self):
        assert ConstantSchedule(12.0).peak() == 12.0

    def test_jump_takes_the_larger_side(self):
        assert JumpSchedule(3.0, 9.0, jump_time=1.0).peak() == 9.0
        assert JumpSchedule(9.0, 3.0, jump_time=1.0).peak() == 9.0

    def test_step_takes_the_overall_maximum(self):
        schedule = StepSchedule(2.0, [(1.0, 7.0), (2.0, 4.0)])
        assert schedule.peak() == 7.0

    def test_sinusoid_is_mean_plus_abs_amplitude(self):
        schedule = SinusoidSchedule(mean=10.0, amplitude=-6.0, period=4.0)
        assert schedule.peak() == 16.0

    def test_unknown_schedule_types_are_rejected(self):
        class Weird(ParameterSchedule):
            def __call__(self, time):
                return 1.0

        with pytest.raises(ValueError, match="majorising rate"):
            Weird().peak()
        with pytest.raises(ValueError, match="majorising rate"):
            OpenArrivals(Weird())


class TestOpenArrivalsValidation:
    def test_zero_rate_is_rejected(self):
        with pytest.raises(ValueError, match="positive finite peak"):
            OpenArrivals(0.0)

    def test_negative_static_value_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            OpenArrivals(JumpSchedule(10.0, -1.0, jump_time=1.0))

    def test_infinite_peak_is_rejected(self):
        with pytest.raises(ValueError, match="positive finite peak"):
            OpenArrivals(float("inf"))

    def test_dynamic_dip_below_zero_is_allowed(self):
        """A sinusoid that dips negative is accepted at construction; no
        arrival is accepted while its rate is negative."""
        OpenArrivals(SinusoidSchedule(mean=5.0, amplitude=8.0, period=4.0))


class TestOpenArrivalsDraws:
    def test_constant_rate_is_exponential_on_the_dedicated_stream(self):
        arrivals = OpenArrivals(4.0)
        gaps = [arrivals.next_interarrival(*arrival_draws(RandomStreams(7)), now=0.0)]
        expected = float(RandomStreams(7).stream(INTERARRIVAL_STREAM).exponential(0.25))
        assert gaps[0] == expected

    def test_constant_rate_mean_matches_the_rate(self):
        arrivals = OpenArrivals(4.0)
        draws = arrival_draws(RandomStreams(3))
        now = 0.0
        gaps = []
        for _ in range(4000):
            gap = arrivals.next_interarrival(*draws, now)
            gaps.append(gap)
            now += gap
        assert sum(gaps) / len(gaps) == pytest.approx(0.25, rel=0.1)

    def test_constant_rate_never_touches_the_thinning_stream(self):
        arrivals = OpenArrivals(4.0)
        streams = RandomStreams(7)
        draws = arrival_draws(streams)
        for _ in range(10):
            arrivals.next_interarrival(*draws, now=0.0)
        assert THINNING_STREAM not in streams._generators

    def test_thinning_reproduces_the_time_varying_rate(self):
        """Arrival counts track the jump: ~5/s before, ~25/s after."""
        arrivals = OpenArrivals(JumpSchedule(5.0, 25.0, jump_time=50.0))
        draws = arrival_draws(RandomStreams(11))
        now, before, after = 0.0, 0, 0
        while now < 100.0:
            now += arrivals.next_interarrival(*draws, now)
            if now < 50.0:
                before += 1
            elif now < 100.0:
                after += 1
        assert before == pytest.approx(250, rel=0.2)
        assert after == pytest.approx(1250, rel=0.2)

    def test_thinning_is_deterministic_given_the_seed(self):
        def draws(seed):
            arrivals = OpenArrivals(SinusoidSchedule(10.0, 6.0, period=3.0))
            draws = arrival_draws(RandomStreams(seed))
            now, out = 0.0, []
            for _ in range(50):
                gap = arrivals.next_interarrival(*draws, now)
                out.append(gap)
                now += gap
            return out

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)

    @pytest.mark.parametrize("rate", [
        pytest.param(4.0, id="constant"),
        pytest.param(JumpSchedule(5.0, 25.0, jump_time=2.0), id="jump"),
        pytest.param(SinusoidSchedule(10.0, 6.0, period=3.0), id="sinusoid"),
    ])
    def test_buffered_gaps_equal_the_scalar_draws(self, rate):
        """The buffered readers give the gaps that one scalar ``exponential``
        per candidate and one ``uniform(0, peak)`` per thinning test give."""
        arrivals = OpenArrivals(rate)
        schedule = arrivals.rate
        scalar = RandomStreams(29)

        def scalar_gap(now):
            if isinstance(schedule, ConstantSchedule):
                return float(scalar.stream(INTERARRIVAL_STREAM).exponential(1.0 / schedule.value))
            peak = schedule.peak()
            gap = 0.0
            while True:
                gap += float(scalar.stream(INTERARRIVAL_STREAM).exponential(1.0 / peak))
                if float(scalar.stream(THINNING_STREAM).uniform(0.0, peak)) < schedule(now + gap):
                    return gap

        draws = arrival_draws(RandomStreams(29))
        now = 0.0
        for _ in range(600):  # several refills of each reader
            gap = arrivals.next_interarrival(*draws, now)
            assert gap == scalar_gap(now)
            now += gap

    def test_no_arrival_is_accepted_while_the_rate_is_negative(self):
        """The acceptance draw lies in ``[0, peak)``, so a negative rate
        accepts nothing, clamped or not."""
        schedule = SinusoidSchedule(2.0, 10.0, period=4.0)
        arrivals = OpenArrivals(schedule)
        draws = arrival_draws(RandomStreams(13))
        now = 0.0
        for _ in range(200):
            now += arrivals.next_interarrival(*draws, now)
            assert schedule(now) > 0.0

    def test_drawing_leaves_the_process_unchanged(self):
        """A source holds no run state: a used one still equals, hashes and
        pickles like a fresh one, negative-rate instants included."""
        used = OpenArrivals(SinusoidSchedule(2.0, 10.0, period=4.0))
        before = pickle.dumps(used)
        draws = arrival_draws(RandomStreams(13))
        now = 0.0
        for _ in range(50):
            now += used.next_interarrival(*draws, now)
        fresh = OpenArrivals(SinusoidSchedule(2.0, 10.0, period=4.0))
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert pickle.dumps(used) == before


class TestPartlyOpenSessions:
    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="session_alpha"):
            PartlyOpenArrivals(5.0, session_alpha=0.0)
        with pytest.raises(ValueError, match="session bounds"):
            PartlyOpenArrivals(5.0, min_session=0)
        with pytest.raises(ValueError, match="session bounds"):
            PartlyOpenArrivals(5.0, min_session=10, max_session=4)
        with pytest.raises(ValueError, match="session_think_time"):
            PartlyOpenArrivals(5.0, session_think_time=-0.1)

    def test_sizes_stay_inside_the_configured_bounds(self):
        arrivals = PartlyOpenArrivals(5.0, session_alpha=1.2,
                                      min_session=2, max_session=9)
        streams = RandomStreams(17)
        sizes = [arrivals.session_size(streams) for _ in range(2000)]
        assert min(sizes) == 2
        assert 2 < max(sizes) <= 9

    def test_heavier_tail_with_smaller_alpha(self):
        def mean_size(alpha):
            arrivals = PartlyOpenArrivals(5.0, session_alpha=alpha,
                                          min_session=1, max_session=50)
            streams = RandomStreams(19)
            return sum(arrivals.session_size(streams) for _ in range(5000)) / 5000.0

        assert mean_size(0.8) > mean_size(2.5)

    def test_degenerate_bounds_still_consume_one_draw(self):
        """min == max short-circuits the inverse CDF but keeps the draw
        discipline, so widening the bounds later never shifts the stream."""
        arrivals = PartlyOpenArrivals(5.0, min_session=3, max_session=3)
        streams = RandomStreams(23)
        assert arrivals.session_size(streams) == 3
        reference = RandomStreams(23).stream(SESSION_SIZE_STREAM)
        reference.uniform(0.0, 1.0)
        assert (streams.stream(SESSION_SIZE_STREAM).uniform(0.0, 1.0)
                == reference.uniform(0.0, 1.0))

    def test_inverse_cdf_matches_a_hand_computed_point(self):
        arrivals = PartlyOpenArrivals(5.0, session_alpha=1.5,
                                      min_session=1, max_session=50)

        class Fixed:
            def stream(self, name):
                assert name == SESSION_SIZE_STREAM
                return self

            def uniform(self, low, high):
                return 0.9

        expected = 1.0 / (1.0 - 0.9 * (1.0 - (1.0 / 50.0) ** 1.5)) ** (1.0 / 1.5)
        assert arrivals.session_size(Fixed()) == int(math.floor(expected))


class TestConfigurationSemantics:
    def test_equality_and_hash_by_configuration(self):
        a = PartlyOpenArrivals(JumpSchedule(2.0, 8.0, jump_time=3.0),
                               session_alpha=1.5, max_session=20)
        b = PartlyOpenArrivals(JumpSchedule(2.0, 8.0, jump_time=3.0),
                               session_alpha=1.5, max_session=20)
        c = PartlyOpenArrivals(JumpSchedule(2.0, 8.0, jump_time=3.0),
                               session_alpha=2.0, max_session=20)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert OpenArrivals(5.0) != PartlyOpenArrivals(5.0)

    def test_arrival_processes_pickle(self):
        for arrivals in (OpenArrivals(5.0),
                         PartlyOpenArrivals(SinusoidSchedule(10.0, 4.0, period=2.0),
                                            session_think_time=0.05)):
            assert pickle.loads(pickle.dumps(arrivals)) == arrivals


class TestOpenSystemRuns:
    def test_open_source_commits_and_reports_percentiles(self):
        system = TransactionSystem(small_params(),
                                   arrivals=OpenArrivals(20.0))
        system.run(until=10.0)
        assert system.metrics.commits > 0
        assert system.metrics.shed == 0
        p95 = system.metrics.p95_response_time
        p99 = system.metrics.p99_response_time
        assert 0.0 < p95 <= p99

    def test_open_runs_are_deterministic_given_the_seed(self):
        def run():
            system = TransactionSystem(
                small_params(seed=9),
                arrivals=PartlyOpenArrivals(6.0, session_think_time=0.01))
            system.run(until=10.0)
            return (system.metrics.commits, system.metrics.submitted,
                    system.metrics.p95_response_time)

        assert run() == run()

    def test_session_bursts_submit_more_than_their_session_count(self):
        """Partly-open sources multiply arrivals by the session size."""
        open_system = TransactionSystem(small_params(), arrivals=OpenArrivals(6.0))
        open_system.run(until=10.0)
        partly = TransactionSystem(
            small_params(),
            arrivals=PartlyOpenArrivals(6.0, session_alpha=1.0, min_session=2,
                                        max_session=30))
        partly.run(until=10.0)
        assert partly.metrics.submitted > open_system.metrics.submitted

    def test_open_arrivals_leave_the_closed_streams_untouched(self):
        """The source draws only on its dedicated stream names."""
        streams = RandomStreams(31)
        draws = arrival_draws(streams)
        arrivals = PartlyOpenArrivals(SinusoidSchedule(8.0, 4.0, period=2.0))
        now = 0.0
        for _ in range(20):
            now += arrivals.next_interarrival(*draws, now)
            arrivals.session_size(streams)
        assert set(streams._generators) == {
            INTERARRIVAL_STREAM, THINNING_STREAM, SESSION_SIZE_STREAM}
