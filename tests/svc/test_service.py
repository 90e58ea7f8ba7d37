"""In-process coverage of the sweep service, its control planes and CLI.

The soundness and recovery guarantees live in ``test_cache_soundness.py``
and ``test_crash_recovery.py``; this module covers the machinery around
them: FIFO queue semantics, per-request error mapping on both control
planes (TCP and HTTP), the cache's degradation paths (corrupt entries,
failed writes, concurrent writers), the telemetry spans, fuzz-campaign
routing, and the ``repro-svc`` CLI end to end (``serve`` runs in a thread
here so the coverage gate sees it; the subprocess path is exercised by the
crash-recovery test).
"""

import dataclasses
import errno
import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.canonical import canonical_json
from repro.core import DisplacementPolicy, MeasurementIntervalTuner, VictimCriterion
from repro.dist.worker import Worker
from repro.experiments.config import ExperimentScale, default_system_params
from repro.obs.telemetry import telemetry_to
from repro.runner.api import run_sweep
from repro.runner.cells import execute_run_spec
from repro.runner.executor import SerialExecutor
from repro.runner.registry import build_sweep
from repro.runner.specs import (
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    run_spec_fingerprint,
    run_spec_to_jsonable,
)
from repro.svc import cache as cache_module
from repro.svc.cache import ResultCache
from repro.svc.cli import main as svc_main
from repro.svc.client import ServiceClient, ServiceError, ServiceExecutor
from repro.svc.http import make_http_server
from repro.svc.service import SweepService, results_document
from repro.tp.workload import StepSchedule


def _outer_loop_cell() -> RunSpec:
    """The "PA + displacement + outer loop" row of
    ``examples/policy_comparison.py``, at smoke scale."""
    scale = ExperimentScale.smoke()
    third = scale.tracking_horizon / 3
    return RunSpec(
        kind=KIND_TRACKING,
        cell_id="policies/PA + displacement + outer loop",
        params=default_system_params(seed=19).with_changes(n_terminals=250),
        scale=scale,
        controller=ControllerSpec.make(
            "parabola", initial_limit=20, forgetting=0.9, probe_amplitude=3.0,
            max_move=30.0, lower_bound=2),
        scenario=("accesses", StepSchedule(initial=6, steps=[(third, 12), (2 * third, 4)])),
        label="PA + displacement + outer loop",
        displacement=DisplacementPolicy(criterion=VictimCriterion.YOUNGEST, hysteresis=5),
        interval_tuner=MeasurementIntervalTuner(target_departures=150, min_interval=0.5,
                                                max_interval=10.0),
    )


def _thread_worker(address: str) -> threading.Thread:
    worker = Worker(address, connect_retry=30.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def cells():
    return list(build_sweep("thrashing", scale=ExperimentScale.smoke()).cells)


@pytest.fixture(scope="module")
def serial_results(cells):
    return SerialExecutor().execute(execute_run_spec, cells)


@pytest.fixture()
def service(tmp_path):
    with SweepService(cache=tmp_path / "cache") as svc:
        _thread_worker(svc.worker_address)
        svc.executor.wait_for_workers(1)
        yield svc


class TestJobLifecycle:
    def test_submit_runs_and_results_match_a_serial_run(self, service, cells,
                                                        serial_results):
        client = ServiceClient(service.control_address)
        job_id = client.submit("direct", cells)
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "done"
        assert status["n_cells"] == len(cells)
        assert canonical_json(client.results(job_id)) == \
            canonical_json(results_document("direct", serial_results))
        raw = client.result_cells(job_id)
        assert [r.metrics for r in raw] == [r.metrics for r in serial_results]

    def test_jobs_run_fifo_and_queue_positions_are_reported(self, tmp_path,
                                                            cells):
        # no workers: the first job occupies the executor, the rest queue
        with SweepService(cache=tmp_path / "q") as svc:
            client = ServiceClient(svc.control_address)
            first = client.submit("first", cells)
            second = client.submit("second", cells)
            third = client.submit("third", cells)
            import time
            for _ in range(100):
                if client.status(first)["state"] == "running":
                    break
                time.sleep(0.02)
            assert client.status(first)["state"] == "running"
            assert client.status(second)["state"] == "queued"
            assert client.status(second)["position"] == 0
            assert client.status(third)["position"] == 1
            everything = client.status()
            assert [job["job_id"] for job in everything] == \
                [first, second, third]
            # a busy service queues rather than rejects; results of an
            # unfinished job are refused, not blocked on
            with pytest.raises(ServiceError, match="not done"):
                client.results(first)

    def test_failed_job_is_recorded_and_service_survives(self, service,
                                                         cells):
        client = ServiceClient(service.control_address)
        broken = [dataclasses.replace(
            cells[0], controller=ControllerSpec.make("no-such-controller"))]
        job_id = client.submit("broken", broken)
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "failed"
        assert "no-such-controller" in status["error"]
        with pytest.raises(ServiceError, match="failed"):
            client.results(job_id)
        # the failure is not cached and the service keeps serving
        follow_up = client.submit("after-failure", cells[:1])
        assert client.wait(follow_up, timeout=120.0)["state"] == "done"

    def test_a_failed_multi_worker_job_caches_only_the_prefix_it_reached(
            self, tmp_path, cells):
        # results are stored as the ordered stream yields them, so a failed
        # job keeps only cells before its failing one; whatever a second
        # worker returned past it is dropped and simulated again on retry
        broken = dataclasses.replace(
            cells[0], controller=ControllerSpec.make("no-such-controller"))
        with SweepService(cache=tmp_path / "cache") as svc:
            for _ in range(2):
                _thread_worker(svc.worker_address)
            svc.executor.wait_for_workers(2)
            failed = svc.submit("broken", [cells[0], broken, *cells[1:]])
            assert svc.wait(failed, timeout=120.0)["state"] == "failed"
            probe = ResultCache(svc.cache.directory)
            cached = [probe.lookup(cell) is not None for cell in cells]
            assert not any(cached[1:])
            retry = svc.submit("retry", cells)
            status = svc.wait(retry, timeout=120.0)
            assert status["state"] == "done"
            assert (status["cache_hits"], status["cache_misses"]) == \
                (int(cached[0]), len(cells) - int(cached[0]))

    def test_wait_backs_off_from_1ms_to_the_poll_interval(self, monkeypatch):
        states = iter(["running"] * 8 + ["done"])
        client = ServiceClient("127.0.0.1:1")
        monkeypatch.setattr(client, "status",
                            lambda job_id: {"state": next(states)})
        sleeps, real_sleep, caller = [], time.sleep, threading.current_thread()

        def sleep(seconds):
            # record only this thread's waits: a stray thread may sleep too
            if threading.current_thread() is caller:
                sleeps.append(seconds)
            else:
                real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        assert client.wait("job-1", poll_interval=0.1)["state"] == "done"
        assert len(sleeps) == 8
        assert sleeps[0] <= 0.01
        assert sleeps == sorted(sleeps)
        assert max(sleeps) == sleeps[-1] == 0.1

    def test_submission_validates_cell_types(self, service):
        with pytest.raises(TypeError):
            service.submit("bad", ["not a RunSpec"])
        client = ServiceClient(service.control_address)
        with pytest.raises(ServiceError, match="RunSpec"):
            client.submit("bad", ["not a RunSpec"])

    def test_unknown_job_ids_are_refused(self, service):
        client = ServiceClient(service.control_address)
        for request in (lambda: client.status("job-999"),
                        lambda: client.results("job-999"),
                        lambda: client.result_cells("job-999")):
            with pytest.raises(ServiceError, match="job-999"):
                request()

    def test_uncached_service_reports_cache_disabled(self, tmp_path, cells):
        with SweepService() as svc:
            _thread_worker(svc.worker_address)
            svc.executor.wait_for_workers(1)
            client = ServiceClient(svc.control_address)
            assert client.cache_stats() == {"enabled": False}
            job_id = client.submit("uncached", cells[:1])
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert status["cache_hits"] == status["cache_misses"] == 0

    def test_close_joins_the_threads_it_started(self, tmp_path):
        before = set(threading.enumerate())
        svc = SweepService(cache=tmp_path / "c")
        _thread_worker(svc.worker_address)
        svc.executor.wait_for_workers(1)
        assert ServiceClient(svc.control_address).cache_stats()["enabled"]
        svc.close()
        leaked = [thread.name for thread in threading.enumerate()
                  if thread not in before and thread.name.startswith(
                      ("dist-accept", "dist-serve-", "svc-"))]
        assert leaked == []

    def test_shutdown_request_closes_the_service(self, tmp_path):
        svc = SweepService(cache=tmp_path / "s")
        client = ServiceClient(svc.control_address)
        assert client.shutdown() == "shutting down"
        import time
        for _ in range(100):
            if svc.closed:
                break
            time.sleep(0.02)
        assert svc.closed
        with pytest.raises(RuntimeError, match="shut down"):
            svc.submit("late", [])


class TestFailedConstructor:
    """A constructor that cannot bind its control port leaves nothing running."""

    def test_no_thread_or_port_outlives_a_failed_bind(self):
        worker_port = _free_port()
        before = set(threading.enumerate())
        with socket.create_server(("127.0.0.1", 0)) as busy:
            with pytest.raises(OSError):
                SweepService(worker_bind=f"127.0.0.1:{worker_port}",
                             control_bind=f"127.0.0.1:{busy.getsockname()[1]}")
        assert _started_since(before, "dist-", "svc-") == []
        # the worker port the executor had bound is free again
        socket.create_server(("127.0.0.1", worker_port)).close()

    def test_local_workers_are_reaped_after_a_failed_bind(self, monkeypatch):
        from repro.dist import cluster

        spawned = []
        spawn = cluster.spawn_local_workers

        def recording_spawn(*args, **kwargs):
            spawned.extend(spawn(*args, **kwargs))
            return spawned

        monkeypatch.setattr(cluster, "spawn_local_workers", recording_spawn)
        with socket.create_server(("127.0.0.1", 0)) as busy:
            with pytest.raises(OSError):
                SweepService(local_workers=1,
                             control_bind=f"127.0.0.1:{busy.getsockname()[1]}")
        assert len(spawned) == 1
        assert [process.poll() for process in spawned] == [0]


class TestServiceExecutor:
    def test_routes_a_fuzz_campaign_with_cache_reuse(self, tmp_path):
        from repro.fuzz.executor import run_campaign

        with SweepService(cache=tmp_path / "fuzz") as svc:
            _thread_worker(svc.worker_address)
            svc.executor.wait_for_workers(1)
            direct = run_campaign(seed=5, budget=2)
            routed = run_campaign(seed=5, budget=2,
                                  executor=ServiceExecutor(svc.control_address))
            # bit-identical verdicts and metrics through the service
            assert [v.failed for v in routed.verdicts] == \
                [v.failed for v in direct.verdicts]
            assert [r.metrics for r in routed.results] == \
                [r.metrics for r in direct.results]
            # a repeat campaign is served entirely from the cache
            repeat = run_campaign(seed=5, budget=2,
                                  executor=ServiceExecutor(svc.control_address))
            assert [r.metrics for r in repeat.results] == \
                [r.metrics for r in direct.results]
            client = ServiceClient(svc.control_address)
            last = client.status()[-1]
            assert last["cache_hits"] == last["n_cells"]
            assert last["cache_misses"] == 0

    def test_fuzz_cli_names_its_service_job_after_the_campaign(self, service):
        from repro.fuzz import cli

        assert cli.main(["--seed", "5", "--budget", "1", "--quiet",
                         "--service", service.control_address]) == 0
        [job] = ServiceClient(service.control_address).status()
        assert job["name"] == "fuzz-seed5-budget1"
        assert job["state"] == "done"

    def test_rejects_foreign_functions(self, service, cells):
        executor = ServiceExecutor(service.control_address)
        with pytest.raises(ValueError, match="execute_run_spec"):
            executor.execute(len, cells)
        assert executor.execute(execute_run_spec, []) == []


class TestTelemetry:
    def test_each_job_emits_one_sweep_span_cold_and_warm(self, tmp_path, cells):
        sink_path = tmp_path / "telemetry.jsonl"
        with telemetry_to(str(sink_path)):
            with SweepService(cache=tmp_path / "cache") as svc:
                _thread_worker(svc.worker_address)
                svc.executor.wait_for_workers(1)
                client = ServiceClient(svc.control_address)
                cold = client.wait(client.submit("cold", cells), timeout=120.0)
                warm = client.wait(client.submit("warm", cells), timeout=120.0)
        assert (cold["cache_misses"], warm["cache_hits"]) == (len(cells), len(cells))
        sweeps = [record for record in map(json.loads, sink_path.read_text().splitlines())
                  if record["span"] == "sweep"]
        assert [(record["executor"], record["cells"]) for record in sweeps] == \
            [("dist", len(cells))] * 2

    def test_cache_and_job_spans_are_emitted(self, tmp_path, cells):
        sink_path = tmp_path / "telemetry.jsonl"
        with telemetry_to(str(sink_path)):
            with SweepService(cache=tmp_path / "cache") as svc:
                _thread_worker(svc.worker_address)
                svc.executor.wait_for_workers(1)
                client = ServiceClient(svc.control_address)
                client.wait(client.submit("cold", cells[:1]), timeout=120.0)
                client.wait(client.submit("warm", cells[:1]), timeout=120.0)
        spans = [json.loads(line)
                 for line in sink_path.read_text().splitlines()]
        by_name = {}
        for record in spans:
            by_name.setdefault(record["span"], []).append(record)
        assert len(by_name["job_submit"]) == 2
        assert by_name["job_submit"][0]["name"] == "cold"
        [miss] = by_name["cache_miss"]
        [hit] = by_name["cache_hit"]
        # the content-addressed key is the same spec both times
        assert hit["key"] == miss["key"]
        assert hit["cell_id"] == cells[0].cell_id


class TestCacheDegradation:
    def test_corrupt_entry_is_a_miss_and_heals_on_refill(self, tmp_path,
                                                         cells,
                                                         serial_results):
        # a handle keeps serving what it wrote or read from memory, so every
        # read of the disk goes through a fresh handle
        writer = ResultCache(tmp_path)
        key = writer.store(cells[0], serial_results[0])
        assert ResultCache(tmp_path).lookup(cells[0]).metrics == serial_results[0].metrics
        writer.path_for(key).write_bytes(b"torn write")
        cache = ResultCache(tmp_path)
        assert cache.lookup(cells[0]) is None  # degraded, not raised
        cache.store(cells[0], serial_results[0])
        assert ResultCache(tmp_path).lookup(cells[0]).metrics == serial_results[0].metrics
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["entries"] == 1

    def test_entries_of_an_older_format_are_never_served(self, service, cells,
                                                         serial_results):
        """A poisoned entry planted under v1/ misses; the cell is simulated fresh."""
        import pickle

        from repro.svc.cache import CACHE_FORMAT

        assert CACHE_FORMAT == 2
        cache = service.cache
        poisoned = dataclasses.replace(
            serial_results[0], metrics={**serial_results[0].metrics, "throughput": -1.0})
        legacy = cache.directory / "v1" / f"{run_spec_fingerprint(cells[0])}.pkl"
        legacy.parent.mkdir(exist_ok=True)
        legacy.write_bytes(pickle.dumps(poisoned))
        client = ServiceClient(service.control_address)
        job_id = client.submit("legacy", cells[:1])
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "done"
        assert status["cache_hits"] == 0 and status["cache_misses"] == 1
        assert canonical_json(client.results(job_id)) == \
            canonical_json(results_document("legacy", serial_results[:1]))


    def test_a_failed_store_leaves_the_job_done_and_nothing_on_disk(
            self, service, cells, serial_results, monkeypatch, caplog):
        class FullDisk:
            """``os`` as the cache sees it, on a disk with no space left."""

            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def replace(source, destination):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cache_module, "os", FullDisk())
        client = ServiceClient(service.control_address)
        job_id = client.submit("full-disk", cells)
        assert client.wait(job_id, timeout=120.0)["state"] == "done"
        assert canonical_json(client.results(job_id)) == \
            canonical_json(results_document("full-disk", serial_results))
        assert service.cache.stats()["stores"] == 0
        assert service.cache.entries() == 0
        assert _files_under(service.cache.directory, ".tmp") == []
        assert "cache store of" in caplog.text

    def test_concurrent_writers_of_one_spec_leave_one_whole_entry(
            self, tmp_path, cells, serial_results):
        handles = [ResultCache(tmp_path), ResultCache(tmp_path)]
        barrier = threading.Barrier(8)

        def store(handle):
            barrier.wait()
            handle.store(cells[0], serial_results[0])

        writers = [threading.Thread(target=store, args=(handles[index % 2],))
                   for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers as finely as possible
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert handles[0].entries() == 1
        assert ResultCache(tmp_path).lookup(cells[0]) == serial_results[0]
        assert _files_under(tmp_path, ".tmp") == []


class TestHttpControlPlane:
    @pytest.fixture()
    def http_base(self, service):
        server = make_http_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join()

    def _get(self, url):
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())

    def _post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_submit_status_results_health_cache(self, service, http_base,
                                                cells, serial_results):
        status, health = self._get(http_base + "/health")
        assert (status, health) == (200, {"status": "ok", "workers": 1})
        status, created = self._post(http_base + "/jobs",
                                     {"scenario": "thrashing"})
        assert status == 201
        job_id = created["job_id"]
        client = ServiceClient(service.control_address)
        client.wait(job_id, timeout=120.0)
        status, listing = self._get(http_base + "/jobs")
        assert any(job["job_id"] == job_id for job in listing)
        status, job = self._get(f"{http_base}/jobs/{job_id}")
        assert job["state"] == "done"
        status, document = self._get(f"{http_base}/jobs/{job_id}/results")
        assert canonical_json(document) == \
            canonical_json(results_document("thrashing", serial_results))
        status, stats = self._get(http_base + "/cache")
        assert stats["enabled"] and stats["stores"] >= len(cells)

    def test_submission_by_explicit_cell_documents(self, service, http_base,
                                                   cells):
        payload = {"name": "by-cells",
                   "cells": [run_spec_to_jsonable(cells[0])]}
        status, created = self._post(http_base + "/jobs", payload)
        assert status == 201
        final = ServiceClient(service.control_address).wait(
            created["job_id"], timeout=120.0)
        assert final["state"] == "done" and final["n_cells"] == 1

    def test_outer_loop_cells_travel_both_planes_and_hit_the_cache(
            self, service, http_base):
        """A tuner-carrying cell is plain data: either plane submits it, it
        has a cache key, and the resubmission simulates nothing."""
        cell = _outer_loop_cell()
        client = ServiceClient(service.control_address)
        tcp_job = client.submit("outer-loop", [cell])
        assert client.wait(tcp_job, timeout=120.0)["state"] == "done"
        status, created = self._post(http_base + "/jobs", {
            "name": "outer-loop", "cells": [run_spec_to_jsonable(cell)]})
        assert status == 201
        http_job = created["job_id"]
        final = client.wait(http_job, timeout=120.0)
        assert final["state"] == "done"
        assert (final["cache_hits"], final["cache_misses"]) == (1, 0)
        serial = SerialExecutor().execute(execute_run_spec, [cell])
        expected = canonical_json(results_document("outer-loop", serial))
        assert canonical_json(client.results(tcp_job)) == expected
        assert canonical_json(client.results(http_job)) == expected

    @pytest.mark.parametrize("path", ["/nope", "/jobs/job-999",
                                      "/jobs/job-999/results"])
    def test_unknown_paths_and_jobs_are_404(self, http_base, path):
        with pytest.raises(urllib.error.HTTPError) as caught:
            self._get(http_base + path)
        assert caught.value.code == 404

    def test_malformed_submissions_are_400(self, http_base):
        for payload in ({}, {"scenario": "no-such-scenario"},
                        {"scenario": "thrashing", "scale": "bogus"}):
            with pytest.raises(urllib.error.HTTPError) as caught:
                self._post(http_base + "/jobs", payload)
            assert caught.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as caught:
            self._post(http_base + "/nope", {"scenario": "thrashing"})
        assert caught.value.code == 404


def _started_since(before, *prefixes):
    """Names of live threads started after ``before`` whose name matches."""
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(prefixes)]


def _files_under(directory, suffix):
    return [name for _, _, names in os.walk(directory)
            for name in names if name.endswith(suffix)]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _serve_thread(control, *options):
    """Start ``repro-svc serve`` in a thread; returns it once ``control`` answers."""
    serve = threading.Thread(
        target=svc_main, args=(["serve", "--control", control, *options],),
        daemon=True)
    serve.start()
    client = ServiceClient(control)
    for _ in range(300):
        try:
            client.cache_stats()
            return serve
        except OSError:
            time.sleep(0.1)
    pytest.fail("serve thread never opened its control port")


class TestCli:
    def test_serve_and_every_client_subcommand(self, tmp_path, capsys):
        control = f"127.0.0.1:{_free_port()}"
        http = f"127.0.0.1:{_free_port()}"
        serve = _serve_thread(control, "--http", http,
                              "--cache", str(tmp_path / "cache"),
                              "--local-workers", "1", "--min-workers", "1")

        assert svc_main(["submit", "--address", control, "thrashing",
                         "--wait"]) == 0
        out = capsys.readouterr().out
        assert "job-1" in out and '"state": "done"' in out
        assert svc_main(["status", "--address", control, "job-1"]) == 0
        assert '"cache_misses": 3' in capsys.readouterr().out
        assert svc_main(["status", "--address", control]) == 0
        assert svc_main(["results", "--address", control, "job-1"]) == 0
        assert '"cells"' in capsys.readouterr().out
        assert svc_main(["cache", "--address", control]) == 0
        assert '"stores": 3' in capsys.readouterr().out
        assert svc_main(["shutdown", "--address", control]) == 0
        serve.join(timeout=30)
        assert not serve.is_alive()

    def test_results_prints_the_serial_document_bytes(self, capsys):
        """``repro-svc results`` and ``GET /jobs/<id>/results`` hand out the
        bytes a serial run renders, which ``repro-dist-coordinator
        --archive`` writes too (``tests/dist/test_results_document.py``)."""
        control = f"127.0.0.1:{_free_port()}"
        http = f"127.0.0.1:{_free_port()}"
        serve = _serve_thread(control, "--http", http,
                              "--local-workers", "1", "--min-workers", "1")
        assert svc_main(["submit", "--address", control, "thrashing",
                         "--replicates", "2", "--wait"]) == 0
        capsys.readouterr()
        assert svc_main(["results", "--address", control, "job-1"]) == 0
        printed = capsys.readouterr().out
        with urllib.request.urlopen(f"http://{http}/jobs/job-1/results") as response:
            body = response.read().decode("utf-8")
        assert svc_main(["shutdown", "--address", control]) == 0
        serve.join(timeout=30)
        assert not serve.is_alive()

        serial = run_sweep("thrashing", scale=ExperimentScale.smoke(), replicates=2)
        expected = canonical_json(results_document("thrashing", serial.results)) + "\n"
        assert printed == expected
        assert body == expected

    def test_serve_closes_its_http_listener_and_thread(self, capsys, monkeypatch):
        """``serve --http`` joins its ``svc-http`` thread and closes the
        listener once a shutdown request ends the service."""
        servers = []

        def recording_server(service, address):
            servers.append(make_http_server(service, address))
            return servers[-1]

        # hold the server, so only an explicit close (not garbage
        # collection of the serve frame) can release its socket
        monkeypatch.setattr("repro.svc.http.make_http_server", recording_server)
        returned = []
        serve = threading.Thread(
            target=lambda: returned.append(svc_main(
                ["--quiet", "serve", "--http", "127.0.0.1:0"])),
            daemon=True)
        serve.start()
        printed = ""
        deadline = time.monotonic() + 30.0
        while ("http address:" not in printed and serve.is_alive()
               and time.monotonic() < deadline):
            time.sleep(0.05)
            printed += capsys.readouterr().out
        addresses = dict(line.split(" address: ")
                         for line in printed.splitlines() if " address: " in line)
        assert set(addresses) == {"worker", "control", "http"}, printed
        http = addresses["http"]
        with urllib.request.urlopen(f"http://{http}/health") as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

        ServiceClient(addresses["control"]).shutdown()
        serve.join(timeout=30)
        assert not serve.is_alive()
        assert returned == [0]
        assert not [thread for thread in threading.enumerate()
                    if thread.name == "svc-http"]
        assert servers[0].socket.fileno() == -1
        host, port = http.rsplit(":", 1)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=5).close()

    def test_submit_wait_exits_nonzero_on_failure(self, tmp_path, capsys):
        # a service with no workers and a tiny stall budget: the job fails
        with SweepService(cache=tmp_path / "f", worker_timeout=0.6) as svc:
            assert svc_main(["submit", "--address", svc.control_address,
                             "thrashing", "--wait", "--timeout", "60"]) == 1
            assert '"state": "failed"' in capsys.readouterr().out

    def test_exit_after_fills_requires_a_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            svc_main(["serve", "--exit-after-fills", "1"])
