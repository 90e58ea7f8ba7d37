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

    def test_sample_returns_distinct_items(self, streams):
        database = Database(100, streams)
        items = database.sample_access_set(20)
        assert len(items) == 20
        assert len(set(items.tolist())) == 20

    def test_sample_within_range(self, streams):
        database = Database(50, streams)
        items = database.sample_access_set(50)
        assert set(items.tolist()) == set(range(50))

    def test_sample_zero_items(self, streams):
        database = Database(10, streams)
        assert len(Database(10, streams).sample_access_set(0)) == 0

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
            seen.update(database.sample_access_set(3).tolist())
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
        assert len(set(items.tolist())) == count
        if count:
            assert items.min() >= 0
            assert items.max() < size
