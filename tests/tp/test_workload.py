"""Tests for workload generation and dynamic parameter schedules."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random_streams import RandomStreams
from repro.tp.params import WorkloadParams
from repro.tp.transaction import TransactionClass
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    MixedClassWorkload,
    SinusoidSchedule,
    VARIED_PARAMETERS,
    StepSchedule,
    TransactionClassSpec,
    Workload,
    check_varied_parameter,
    mixed_class_params,
)


class TestSchedules:
    def test_constant_schedule(self):
        schedule = ConstantSchedule(7.0)
        assert schedule(0.0) == 7.0
        assert schedule(1e6) == 7.0

    def test_jump_schedule(self):
        schedule = JumpSchedule(before=4, after=16, jump_time=100.0)
        assert schedule(0.0) == 4
        assert schedule(99.999) == 4
        assert schedule(100.0) == 16
        assert schedule(500.0) == 16

    def test_step_schedule(self):
        schedule = StepSchedule(initial=1.0, steps=[(10.0, 2.0), (20.0, 3.0)])
        assert schedule(5.0) == 1.0
        assert schedule(10.0) == 2.0
        assert schedule(15.0) == 2.0
        assert schedule(25.0) == 3.0
        assert schedule.values() == (1.0, 2.0, 3.0)
        assert schedule.steps == ((10.0, 2.0), (20.0, 3.0))

    def test_step_schedule_sorts_breakpoints(self):
        schedule = StepSchedule(initial=0.0, steps=[(20.0, 2.0), (10.0, 1.0)])
        assert schedule(15.0) == 1.0

    def test_step_schedule_rejects_duplicate_times(self):
        # with two breakpoints at the same time the effective value would
        # depend on input order (sorted() is stable); reject instead
        with pytest.raises(ValueError, match="distinct times"):
            StepSchedule(initial=0.0, steps=[(10.0, 1.0), (10.0, 2.0)])
        with pytest.raises(ValueError, match="10"):
            StepSchedule(initial=0.0, steps=[(20.0, 3.0), (10, 1.0), (10.0, 2.0)])

    def test_sinusoid_schedule_range_and_period(self):
        schedule = SinusoidSchedule(mean=10.0, amplitude=3.0, period=40.0)
        values = [schedule(t) for t in range(0, 200)]
        assert max(values) == pytest.approx(13.0, abs=0.01)
        assert min(values) == pytest.approx(7.0, abs=0.01)
        assert schedule(0.0) == pytest.approx(schedule(40.0))
        # continuously varying: range-checked at evaluation, not statically
        assert schedule.values() == ()

    def test_sinusoid_requires_positive_period(self):
        with pytest.raises(ValueError):
            SinusoidSchedule(mean=1.0, amplitude=0.5, period=0.0)

    def test_schedule_is_callable(self):
        assert JumpSchedule(1, 2, 5)(6.0) == 2

    def test_schedules_are_frozen_and_store_floats(self):
        """Ints become floats, so equal schedules encode to equal JSON."""
        schedule = JumpSchedule(4, 16, 20)
        assert (schedule.before, schedule.after, schedule.jump_time) == (4.0, 16.0, 20.0)
        assert all(type(value) is float for value in schedule.values())
        assert schedule == JumpSchedule(4.0, 16.0, 20.0)
        with pytest.raises(AttributeError):
            schedule.after = 8.0


class TestWorkloadParametersOverTime:
    def test_params_at_reflects_schedules(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=8)
        workload = Workload(
            base, RandomStreams(seed=1),
            accesses=JumpSchedule(8, 16, 50.0),
            query_fraction=ConstantSchedule(0.4),
        )
        early = workload.params_at(10.0)
        late = workload.params_at(60.0)
        assert early.accesses_per_txn == 8
        assert late.accesses_per_txn == 16
        assert early.query_fraction == pytest.approx(0.4)
        # unscheduled parameters keep their base values
        assert early.write_fraction == base.write_fraction

    def test_statically_out_of_range_schedules_rejected(self):
        """Regression: out-of-range constant/step schedules fail loudly.

        Pre-fix, ``params_at`` silently clamped them on every evaluation,
        so the run swept different parameters than the spec declared (and
        the analytic reference was computed from the clamped values).
        """
        base = WorkloadParams(db_size=100, accesses_per_txn=8)
        streams = RandomStreams(seed=1)
        with pytest.raises(ValueError, match="accesses schedule"):
            Workload(base, streams, accesses=ConstantSchedule(1000.0))
        with pytest.raises(ValueError, match="query_fraction schedule"):
            Workload(base, streams, query_fraction=ConstantSchedule(1.7))
        with pytest.raises(ValueError, match="write_fraction schedule"):
            Workload(base, streams, write_fraction=ConstantSchedule(-0.3))
        with pytest.raises(ValueError, match="write_fraction schedule"):
            Workload(base, streams, write_fraction=StepSchedule(0.5, steps=[(10.0, 1.2)]))
        with pytest.raises(ValueError, match="accesses schedule"):
            Workload(base, streams, accesses=JumpSchedule(8, 200, jump_time=5.0))

    def test_accesses_rounding_below_one_rejected(self):
        # a constant 0.2 rounds to k = 0: statically out of range, so it is
        # rejected instead of silently clamped up to 1 as it used to be
        base = WorkloadParams(db_size=100, accesses_per_txn=8)
        with pytest.raises(ValueError, match="accesses schedule"):
            Workload(base, RandomStreams(seed=1), accesses=ConstantSchedule(0.2))

    def test_dynamic_excursions_are_clamped(self):
        """A sinusoid straying outside the domain is clamped into it."""
        base = WorkloadParams(db_size=1000, accesses_per_txn=8)
        workload = Workload(
            base, RandomStreams(seed=1),
            # mean 0.5, amplitude 1.0: the trough dips below 0, the crest
            # tops 1 — a dynamic excursion the constructor cannot reject
            write_fraction=SinusoidSchedule(mean=0.5, amplitude=1.0, period=40.0),
        )
        in_range = workload.params_at(0.0)  # sin(0) = 0: exactly the mean
        assert in_range.write_fraction == pytest.approx(0.5)
        assert workload.params_at(30.0).write_fraction == 0.0  # trough: 0.5 - 1.0 < 0
        assert workload.params_at(10.0).write_fraction == 1.0  # crest: 0.5 + 1.0 > 1

    def test_a_number_is_a_constant_schedule(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=8)
        numbers = Workload(base, RandomStreams(seed=1), accesses=12, query_fraction=0.4,
                           write_fraction=0.25)
        schedules = Workload(base, RandomStreams(seed=1), accesses=ConstantSchedule(12),
                             query_fraction=ConstantSchedule(0.4),
                             write_fraction=ConstantSchedule(0.25))
        assert numbers.params_at(5.0) == schedules.params_at(5.0)
        assert numbers.params_at(5.0).accesses_per_txn == 12

    def test_constant_workload_returns_one_params_object(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=8)
        workload = Workload(base, RandomStreams(seed=1), accesses=12,
                            write_fraction=ConstantSchedule(0.25))
        first = workload.params_at(0.0)
        assert first.accesses_per_txn == 12
        assert first.write_fraction == 0.25
        assert first.query_fraction == base.query_fraction
        for time in (0.5, 7.0, 1e6):
            assert workload.params_at(time) is first

    def test_sinusoid_workload_still_varies_its_size(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=8)
        workload = Workload(base, RandomStreams(seed=1),
                            accesses=SinusoidSchedule(mean=8.0, amplitude=4.0, period=40.0))
        sizes = [workload.params_at(time).accesses_per_txn for time in (0.0, 10.0, 20.0, 30.0)]
        assert sizes == [8, 12, 8, 4]

    def test_varied_parameters_are_the_workload_keywords(self):
        keywords = list(inspect.signature(Workload).parameters)
        assert keywords == ["base", "streams", *VARIED_PARAMETERS]
        for name in VARIED_PARAMETERS:
            assert check_varied_parameter(name) == name
        with pytest.raises(ValueError, match="acesses"):
            check_varied_parameter("acesses")


class TestTransactionSampling:
    def test_transaction_ids_increase(self):
        workload = Workload(WorkloadParams(), RandomStreams(seed=1))
        first = workload.next_transaction(0.0, terminal_id=0)
        second = workload.next_transaction(1.0, terminal_id=1)
        assert second.txn_id == first.txn_id + 1

    def test_transaction_size_matches_parameters(self):
        params = WorkloadParams(db_size=500, accesses_per_txn=12)
        workload = Workload(params, RandomStreams(seed=1))
        txn = workload.next_transaction(0.0, 0)
        assert txn.size == 12
        assert len(set(txn.items)) == 12

    def test_queries_have_no_writes(self):
        params = WorkloadParams(query_fraction=1.0)
        workload = Workload(params, RandomStreams(seed=1))
        for _ in range(20):
            txn = workload.next_transaction(0.0, 0)
            assert txn.txn_class is TransactionClass.QUERY
            assert txn.is_read_only

    def test_updaters_have_at_least_one_write(self):
        params = WorkloadParams(query_fraction=0.0, write_fraction=0.05)
        workload = Workload(params, RandomStreams(seed=1))
        for _ in range(50):
            txn = workload.next_transaction(0.0, 0)
            assert txn.txn_class is TransactionClass.UPDATER
            assert txn.write_count >= 1

    def test_zero_write_fraction_yields_read_only_updaters(self):
        params = WorkloadParams(query_fraction=0.0, write_fraction=0.0)
        workload = Workload(params, RandomStreams(seed=1))
        txn = workload.next_transaction(0.0, 0)
        assert txn.write_count == 0

    def test_class_mix_approximates_query_fraction(self):
        params = WorkloadParams(query_fraction=0.3)
        workload = Workload(params, RandomStreams(seed=1))
        queries = sum(
            workload.next_transaction(0.0, 0).txn_class is TransactionClass.QUERY
            for _ in range(3000)
        )
        assert queries / 3000 == pytest.approx(0.3, abs=0.03)

    def test_write_mix_approximates_write_fraction(self):
        params = WorkloadParams(query_fraction=0.0, write_fraction=0.4, accesses_per_txn=10)
        workload = Workload(params, RandomStreams(seed=1))
        writes = 0
        accesses = 0
        for _ in range(2000):
            txn = workload.next_transaction(0.0, 0)
            writes += txn.write_count
            accesses += txn.size
        assert writes / accesses == pytest.approx(0.4, abs=0.03)

    def test_jump_changes_sampled_transaction_size(self):
        base = WorkloadParams(db_size=1000, accesses_per_txn=4)
        workload = Workload(
            base, RandomStreams(seed=1), accesses=JumpSchedule(4, 16, 100.0))
        before = workload.next_transaction(50.0, 0)
        after = workload.next_transaction(150.0, 0)
        assert before.size == 4
        assert after.size == 16

    def test_submitted_at_recorded(self):
        workload = Workload(WorkloadParams(), RandomStreams(seed=1))
        txn = workload.next_transaction(42.0, 7)
        assert txn.submitted_at == 42.0
        assert txn.terminal_id == 7

    @pytest.mark.parametrize("write_fraction, k", [(0.5, 8), (0.05, 3), (0.0, 6), (1.0, 4)])
    def test_write_marks_equal_the_vector_draw_and_its_fallback(self, write_fraction, k):
        """An updater's marks are ``random(k) < write_fraction``, and with
        none set, one ``integers(0, k)`` position (when the fraction is positive)."""
        params = WorkloadParams(query_fraction=0.0, write_fraction=write_fraction,
                                accesses_per_txn=k)
        workload = Workload(params, RandomStreams(seed=4))
        marks = RandomStreams(seed=4).stream("write-marks")
        fallbacks = 0
        for _ in range(300):
            flags = marks.random(k) < write_fraction
            if not flags.any() and write_fraction > 0.0:
                flags[int(marks.integers(0, k))] = True
                fallbacks += 1
            assert workload.next_transaction(0.0, 0).write_flags == tuple(flags.tolist())
        assert workload.streams.stream("write-marks").random() == marks.random()
        if write_fraction == 0.05:
            assert fallbacks > 100

    @given(query_fraction=st.floats(min_value=0.0, max_value=1.0),
           write_fraction=st.floats(min_value=0.0, max_value=1.0),
           k=st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_sampled_transactions_always_valid_property(self, query_fraction, write_fraction, k):
        params = WorkloadParams(db_size=200, accesses_per_txn=k,
                                query_fraction=query_fraction,
                                write_fraction=write_fraction)
        workload = Workload(params, RandomStreams(seed=3))
        txn = workload.next_transaction(0.0, 0)
        assert txn.size == k
        assert len(set(txn.items)) == k
        assert all(0 <= item < 200 for item in txn.items)
        if txn.txn_class is TransactionClass.QUERY:
            assert txn.is_read_only
        elif write_fraction > 0:
            assert txn.write_count >= 1


class TestMixedClassWorkload:
    OLTP = TransactionClassSpec(name="oltp", weight=0.75, accesses_per_txn=4,
                                write_fraction=0.6)
    QUERY = TransactionClassSpec(name="long-query", weight=0.25,
                                 accesses_per_txn=20, write_fraction=0.0)

    def _workload(self, seed=5):
        return MixedClassWorkload(WorkloadParams(), RandomStreams(seed=seed),
                                  (self.OLTP, self.QUERY))

    def test_class_spec_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TransactionClassSpec(name="a", weight=0.0, accesses_per_txn=4)
        with pytest.raises(ValueError, match="accesses_per_txn"):
            TransactionClassSpec(name="a", weight=1.0, accesses_per_txn=0)
        with pytest.raises(ValueError, match="write_fraction"):
            TransactionClassSpec(name="a", weight=1.0, accesses_per_txn=4,
                                 write_fraction=1.5)
        with pytest.raises(ValueError, match="name"):
            TransactionClassSpec(name="", weight=1.0, accesses_per_txn=4)

    def test_requires_at_least_one_class(self):
        with pytest.raises(ValueError, match="at least one"):
            MixedClassWorkload(WorkloadParams(), RandomStreams(seed=1), ())

    def test_classes_have_distinct_size_and_write_profile(self):
        workload = self._workload()
        sizes = {TransactionClass.QUERY: set(), TransactionClass.UPDATER: set()}
        for _ in range(400):
            txn = workload.next_transaction(0.0, 0)
            sizes[txn.txn_class].add(txn.size)
            if txn.txn_class is TransactionClass.QUERY:
                assert txn.is_read_only
            else:
                assert txn.write_count >= 1
        assert sizes[TransactionClass.UPDATER] == {4}
        assert sizes[TransactionClass.QUERY] == {20}

    def test_mix_frequencies_follow_weights(self):
        workload = self._workload()
        queries = sum(
            workload.next_transaction(0.0, 0).txn_class is TransactionClass.QUERY
            for _ in range(4000)
        )
        assert queries / 4000 == pytest.approx(0.25, abs=0.025)

    def test_updater_write_ratio_follows_class_write_fraction(self):
        workload = self._workload()
        writes = accesses = 0
        for _ in range(3000):
            txn = workload.next_transaction(0.0, 0)
            if txn.txn_class is TransactionClass.UPDATER:
                writes += txn.write_count
                accesses += txn.size
        assert writes / accesses == pytest.approx(0.6, abs=0.03)

    def test_params_at_reports_the_mix_expectation(self):
        workload = self._workload()
        params = workload.params_at(0.0)
        # 0.75 * 4 + 0.25 * 20 = 8 accesses expected per transaction
        assert params.accesses_per_txn == 8
        assert params.query_fraction == pytest.approx(0.25)
        # regression: params_at used to keep base.write_fraction (0.5 for
        # the default WorkloadParams) instead of the mix's updater ratio
        assert params.write_fraction == pytest.approx(0.6)

    def test_params_at_averages_updater_write_fractions_by_weight(self):
        heavy = TransactionClassSpec(name="heavy", weight=1.0,
                                     accesses_per_txn=4, write_fraction=0.9)
        light = TransactionClassSpec(name="light", weight=3.0,
                                     accesses_per_txn=4, write_fraction=0.1)
        workload = MixedClassWorkload(WorkloadParams(), RandomStreams(seed=3),
                                      (heavy, light, self.QUERY))
        # queries carry no write information: average over updaters only,
        # (1*0.9 + 3*0.1) / 4 = 0.3
        assert workload.params_at(0.0).write_fraction == pytest.approx(0.3)

    def test_query_only_mix_keeps_base_write_fraction(self):
        base = WorkloadParams(write_fraction=0.5)
        params = mixed_class_params(base, (self.QUERY,))
        assert params.write_fraction == 0.5
        assert params.query_fraction == 1.0

    def test_mixed_class_params_helper_matches_workload(self):
        base = WorkloadParams()
        expected = mixed_class_params(base, (self.OLTP, self.QUERY))
        workload = MixedClassWorkload(base, RandomStreams(seed=5),
                                      (self.OLTP, self.QUERY))
        assert workload.params_at(0.0) == expected
        with pytest.raises(ValueError, match="at least one"):
            mixed_class_params(base, ())

    def test_same_streams_same_transactions(self):
        left, right = self._workload(seed=11), self._workload(seed=11)
        for _ in range(50):
            a = left.next_transaction(0.0, 0)
            b = right.next_transaction(0.0, 0)
            assert (a.txn_class, a.items, a.write_flags) == \
                (b.txn_class, b.items, b.write_flags)

    def test_class_size_clamped_to_db(self):
        huge = TransactionClassSpec(name="huge", weight=1.0,
                                    accesses_per_txn=100)
        workload = MixedClassWorkload(WorkloadParams(db_size=30),
                                      RandomStreams(seed=2), (huge,))
        assert workload.next_transaction(0.0, 0).size == 30

    def test_specs_are_picklable(self):
        import pickle

        clone = pickle.loads(pickle.dumps((self.OLTP, self.QUERY)))
        assert clone == (self.OLTP, self.QUERY)
