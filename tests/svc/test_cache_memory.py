"""The result cache's memory level.

Each :class:`~repro.svc.cache.ResultCache` handle keeps the encoded bytes
of the entries it has written or read in full, least recently used first
out once they pass :data:`~repro.svc.cache.MEMORY_BYTES`.  A hit served
from memory opens no file and, like a disk hit, returns an object no other
caller holds; a fresh handle starts empty and reads the disk.
"""

import builtins
import dataclasses
import errno
import os
import pickle
import sys
import threading

import pytest

from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.registry import build_sweep
from repro.svc import cache as cache_module
from repro.svc.cache import ResultCache
from repro.svc.service import SweepService


@pytest.fixture(scope="module")
def cells():
    return list(build_sweep("thrashing", scale=ExperimentScale.smoke()).cells)


@pytest.fixture(scope="module")
def results(cells):
    return [execute_run_spec(cell) for cell in cells]


@pytest.fixture()
def opened(monkeypatch):
    """The paths the cache module opens from now on."""
    paths = []

    def recording_open(path, *args, **kwargs):
        paths.append(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", recording_open, raising=False)
    return paths


def _size(result) -> int:
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _delete_entries(cache: ResultCache) -> None:
    for path in cache.directory.glob("v*/*.pkl"):
        path.unlink()


class TestHits:
    def test_a_hit_on_a_stored_entry_opens_no_file(self, tmp_path, cells, results, opened):
        cache = ResultCache(tmp_path)
        cache.store(cells[0], results[0])
        written = list(opened)
        assert cache.lookup(cells[0]) == results[0]
        assert opened == written
        assert cache.stats()["hits"] == 1

    def test_a_hit_on_an_entry_read_from_disk_opens_no_file(self, tmp_path, cells, results,
                                                            opened):
        ResultCache(tmp_path).store(cells[0], results[0])
        cache = ResultCache(tmp_path)
        assert cache.lookup(cells[0]) == results[0]
        reads = len(opened)
        assert cache.lookup(cells[0]) == results[0]
        assert len(opened) == reads

    def test_a_held_entry_outlives_its_file_and_a_fresh_handle_misses(self, tmp_path, cells,
                                                                      results):
        cache = ResultCache(tmp_path)
        cache.store(cells[0], results[0])
        _delete_entries(cache)
        assert cache.lookup(cells[0]) == results[0]
        assert ResultCache(tmp_path).lookup(cells[0]) is None

    def test_each_hit_returns_an_object_no_other_caller_holds(self, tmp_path, cells, results):
        cache = ResultCache(tmp_path)
        stored = dataclasses.replace(results[0], metrics=dict(results[0].metrics))
        cache.store(cells[0], stored)
        first = cache.lookup(cells[0])
        second = cache.lookup(cells[0])
        assert first == second == stored
        assert first is not second and first is not stored
        assert first.metrics is not second.metrics
        first.metrics["throughput"] = -1.0
        stored.metrics["commits"] = -1
        assert cache.lookup(cells[0]) == results[0]

    def test_a_warm_job_opens_no_entry_file(self, tmp_path, cells, results, opened):
        cache = ResultCache(tmp_path)
        for cell, result in zip(cells, results):
            cache.store(cell, result)
        with SweepService(cache=cache) as service:
            # every cell hits, so the job needs no worker
            job_id = service.submit("warm", cells)
            status = service.wait(job_id, timeout=60.0)
            assert status["state"] == "done"
            assert status["cache_hits"] == len(cells) and status["cache_misses"] == 0
            assert service.result_cells(job_id) == results
        assert not [path for path in opened if str(path).endswith(".pkl")]


class TestBudget:
    def test_least_recently_used_entries_go_first(self, tmp_path, cells, results, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BYTES",
                            _size(results[0]) + _size(results[1]) + _size(results[2]) // 2)
        cache = ResultCache(tmp_path)
        cache.store(cells[0], results[0])
        cache.store(cells[1], results[1])
        assert cache.lookup(cells[0]) == results[0]  # cells[1] is now the oldest
        cache.store(cells[2], results[2])
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        assert stats["memory_bytes"] == _size(results[0]) + _size(results[2])
        _delete_entries(cache)
        assert cache.lookup(cells[0]) == results[0]
        assert cache.lookup(cells[2]) == results[2]
        assert cache.lookup(cells[1]) is None

    def test_an_entry_larger_than_the_budget_is_not_held(self, tmp_path, cells, results,
                                                         monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", _size(results[0]) - 1)
        cache = ResultCache(tmp_path)
        cache.store(cells[0], results[0])
        assert cache.stats()["memory_entries"] == 0
        assert cache.lookup(cells[0]) == results[0]  # from disk
        assert cache.stats()["memory_bytes"] == 0
        _delete_entries(cache)
        assert cache.lookup(cells[0]) is None

    def test_threads_sharing_a_handle_keep_its_accounting(self, tmp_path, cells, results,
                                                          monkeypatch):
        """Eight threads store and look up through one handle under a two-entry budget."""
        sizes = [_size(result) for result in results]
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 2 * max(sizes))
        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(8)
        wrong = []

        def work(index):
            barrier.wait()
            for round_ in range(30):
                position = (index + round_) % len(cells)
                cache.store(cells[position], results[position])
                found = cache.lookup(cells[(position + 1) % len(cells)])
                if found is not None and found != results[(position + 1) % len(cells)]:
                    wrong.append(position)

        threads = [threading.Thread(target=work, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = cache.stats()
        assert stats["stores"] == 8 * 30
        assert stats["memory_bytes"] == sum(len(data) for data in cache._memory.values())
        assert 0 < stats["memory_bytes"] <= cache_module.MEMORY_BYTES


class TestOnlyWholeEntriesAreHeld:
    def test_a_failed_write_is_not_held(self, tmp_path, cells, results, monkeypatch):
        class FullDisk:
            """``os`` as the cache sees it, on a disk with no space left."""

            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def replace(source, destination):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cache_module, "os", FullDisk())
        assert cache.store(cells[0], results[0]) is None
        assert cache.stats()["memory_entries"] == 0
        assert cache.lookup(cells[0]) is None

    def test_an_unreadable_entry_is_not_held(self, tmp_path, cells, results):
        writer = ResultCache(tmp_path)
        key = writer.store(cells[0], results[0])
        entry = writer.path_for(key)
        entry.write_bytes(entry.read_bytes()[:-5])  # torn
        cache = ResultCache(tmp_path)
        assert cache.lookup(cells[0]) is None
        assert cache.stats()["memory_entries"] == 0
        # a miss holds nothing either
        assert cache.lookup(cells[1]) is None
        assert cache.stats()["memory_entries"] == 0

    def test_an_entry_read_in_full_is_held(self, tmp_path, cells, results):
        ResultCache(tmp_path).store(cells[0], results[0])
        cache = ResultCache(tmp_path)
        assert cache.stats()["memory_entries"] == 0
        assert cache.lookup(cells[0]) == results[0]
        assert cache.stats()["memory_bytes"] == _size(results[0])
        _delete_entries(cache)
        assert cache.lookup(cells[0]) == results[0]


def test_the_written_file_holds_the_held_bytes(tmp_path, cells, results):
    """Memory and disk hold the same encoding, the bytes ``pickle.dump`` wrote before."""
    cache = ResultCache(tmp_path)
    key = cache.store(cells[0], results[0])
    assert cache.path_for(key).read_bytes() == cache._memory[key] == pickle.dumps(
        results[0], protocol=pickle.HIGHEST_PROTOCOL)
