"""Tests for the logical database and access-set sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random_streams import RandomStreams
from repro.tp.database import Database


@pytest.fixture
def streams():
    return RandomStreams(seed=5)


class TestDatabaseBasics:
    def test_size_must_be_positive(self, streams):
        with pytest.raises(ValueError):
            Database(0, streams)

    def test_size_must_fit_lemires_32_bit_draws(self, streams):
        Database(2**32 - 1, streams)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            Database(2**32, streams)

    def test_sample_returns_distinct_items(self, streams):
        database = Database(100, streams)
        items = database.sample_access_set(20)
        assert len(items) == 20
        assert len(set(items)) == 20

    def test_sample_within_range(self, streams):
        database = Database(50, streams)
        items = database.sample_access_set(50)
        assert set(items) == set(range(50))

    def test_sample_zero_items(self, streams):
        database = Database(10, streams)
        assert database.sample_access_set(0) == ()
        assert "data-access" not in streams._generators  # nothing drawn

    def test_sample_too_many_raises(self, streams):
        database = Database(10, streams)
        with pytest.raises(ValueError):
            database.sample_access_set(11)

    def test_sample_negative_raises(self, streams):
        database = Database(10, streams)
        with pytest.raises(ValueError):
            database.sample_access_set(-1)

    def test_uniform_access_covers_database(self, streams):
        database = Database(20, streams)
        seen = set()
        for _ in range(200):
            seen.update(database.sample_access_set(3))
        assert seen == set(range(20))

    def test_reproducible_with_same_seed(self):
        first = Database(1000, RandomStreams(seed=9)).sample_access_set(10)
        second = Database(1000, RandomStreams(seed=9)).sample_access_set(10)
        np.testing.assert_array_equal(first, second)


class TestSamplingProperties:
    @given(size=st.integers(min_value=1, max_value=500),
           count_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_sample_always_distinct_and_in_range(self, size, count_fraction):
        database = Database(size, RandomStreams(seed=2))
        count = int(round(count_fraction * size))
        items = database.sample_access_set(count)
        assert len(items) == count
        assert len(set(items)) == count
        if count:
            assert min(items) >= 0
            assert max(items) < size


def next_word(generator):
    """The next 32-bit word of ``generator``'s bit generator, as ``choice`` would read it."""
    return int(generator.integers(0, 2**32, dtype=np.uint32))


class TestSameDrawsAsChoice:
    """The sampler reproduces ``Generator.choice(size, k, replace=False)``, draw for draw."""

    @pytest.mark.parametrize("size, count", [
        pytest.param(4000, 8, id="floyd"),
        pytest.param(4000, 1, id="k=1"),
        pytest.param(1, 1, id="size=1"),
        pytest.param(300, 300, id="k=size floyd"),
        pytest.param(5000, 300, id="floyd, more draws than a block"),
        pytest.param(10001, 200, id="floyd at the tail-shuffle threshold"),
        pytest.param(10001, 300, id="tail shuffle"),
        pytest.param(20000, 401, id="tail shuffle, k = size // 50 + 1"),
        pytest.param(20000, 20000, id="k=size tail shuffle"),
        pytest.param(3_000_000_000, 5, id="bounds that reject often"),
    ])
    def test_samples_and_the_next_word_equal_choice(self, size, count):
        database = Database(size, RandomStreams(seed=11))
        generator = RandomStreams(seed=11).stream("data-access")
        repeats = 3 if size * count > 10**6 else 40
        for _ in range(repeats):
            expected = tuple(generator.choice(size, size=count, replace=False).tolist())
            assert database.sample_access_set(count) == expected
        # the sampler took exactly the words choice took
        database._reserve(1)
        assert database._words[-1] == next_word(generator)

    def test_mixed_sizes_across_refill_boundaries(self):
        database = Database(4000, RandomStreams(seed=3))
        generator = RandomStreams(seed=3).stream("data-access")
        for index in range(1000):
            count = 1 + index % 17
            expected = tuple(generator.choice(4000, size=count, replace=False).tolist())
            assert database.sample_access_set(count) == expected
        database._reserve(1)
        assert database._words[-1] == next_word(generator)
