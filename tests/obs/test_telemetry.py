"""Structured run telemetry: spans, sinks, and executor integration."""

import io
import json
import logging
import os
import sys
import threading

import pytest

from repro.experiments.config import ExperimentScale
from repro.obs import telemetry
from repro.obs.telemetry import (
    TELEMETRY_ENV,
    TelemetrySink,
    active_sink,
    configure_cli_logging,
    emit,
    set_worker_name,
    telemetry_to,
    worker_name,
)
from repro.runner.api import run_sweep


def read_jsonl(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


@pytest.fixture(autouse=True)
def isolated_telemetry(monkeypatch):
    """Keep sink and name state from leaking between tests."""
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    sinks = {}
    monkeypatch.setattr(telemetry, "_env_sinks", sinks)
    set_worker_name(None)
    yield
    for sink in sinks.values():
        sink.close()
    set_worker_name(None)


class TestSinkPlumbing:
    def test_emit_without_a_sink_is_a_no_op(self, tmp_path):
        assert active_sink() is None
        emit("sweep", cells=3)  # must not raise or create files
        assert list(tmp_path.iterdir()) == []

    def test_telemetry_to_routes_spans_to_the_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with telemetry_to(str(path)):
            assert os.environ[TELEMETRY_ENV] == str(path)
            emit("sweep", cells=2, duration=0.5)
        assert active_sink() is None
        [record] = read_jsonl(path)
        assert record["span"] == "sweep"
        assert record["cells"] == 2

    def test_env_var_alone_activates_a_sink(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, str(path))
        sink = active_sink()
        assert isinstance(sink, TelemetrySink)
        assert sink is active_sink()  # cached per path
        emit("probe")
        sink.close()
        assert [r["span"] for r in read_jsonl(path)] == ["probe"]

    def test_a_block_on_the_exported_path_restores_the_cached_sink(self, tmp_path, monkeypatch):
        path = tmp_path / "shared.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, str(path))
        cached = active_sink()
        with telemetry_to(str(path)) as sink:
            assert active_sink() is sink
            emit("inside")
        assert active_sink() is cached
        emit("after")
        assert [r["span"] for r in read_jsonl(path)] == ["inside", "after"]

    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "canon.jsonl"
        with telemetry_to(str(path)):
            emit("sweep", zeta=1, alpha=2)
        [line] = path.read_text().splitlines()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_a_closed_sink_drops_writes_and_keeps_no_descriptor(self, tmp_path):
        # a serving thread may emit a span after telemetry_to() has exited;
        # that span must neither reopen the file nor leak its descriptor
        path = tmp_path / "closed.jsonl"
        with telemetry_to(str(path)) as sink:
            emit("sweep", cells=1)
        before = path.read_bytes()
        sink.write({"span": "late"})
        assert path.read_bytes() == before
        if os.path.isdir("/proc/self/fd"):
            open_paths = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    open_paths.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    continue  # the descriptor listdir itself used
            assert str(path) not in open_paths


class TestCliLogging:
    def test_records_follow_the_current_stderr(self, capsys):
        # a CLI main() configures logging while a test's stderr is swapped
        # in; once that stream is closed, later records must reach the
        # current stderr instead of failing on the closed one
        root = logging.getLogger()
        saved = (root.handlers[:], root.level)
        original = sys.stderr
        sys.stderr = io.StringIO()
        try:
            configure_cli_logging()
        finally:
            sys.stderr.close()
            sys.stderr = original
        try:
            logging.getLogger("repro.test").info("logged after the stream closed")
        finally:
            root.handlers[:], root.level = saved
        captured = capsys.readouterr()
        assert "Logging error" not in captured.err
        assert "I/O operation on closed file" not in captured.err
        assert "INFO repro.test: logged after the stream closed" in captured.err


class TestWorkerAttribution:
    def test_default_name_is_hostname_pid(self):
        assert worker_name().endswith(f"-{os.getpid()}")

    def test_set_worker_name_overrides_and_restores(self):
        set_worker_name("cli-worker")
        assert worker_name() == "cli-worker"
        set_worker_name(None)
        assert worker_name().endswith(f"-{os.getpid()}")

    def test_every_span_carries_worker_and_timestamp(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        set_worker_name("attributed")
        with telemetry_to(str(path)):
            emit("cell_execute", cell_id="a", duration=0.1)
        [record] = read_jsonl(path)
        assert record["worker"] == "attributed"
        assert isinstance(record["ts"], float)


#: the stable schema of executor spans, with volatile values normalised out
CELL_EXECUTE_KEYS = {"span", "worker", "ts", "cell_id", "replicate", "kind",
                     "duration"}
SWEEP_KEYS = {"span", "worker", "ts", "executor", "workers", "cells",
              "duration"}


class TestExecutorSpans:
    def _run(self, tmp_path, workers):
        path = tmp_path / "run.jsonl"
        with telemetry_to(str(path)):
            result = run_sweep("thrashing", scale=ExperimentScale.smoke(),
                               workers=workers)
        return result, read_jsonl(path)

    def test_serial_sweep_emits_one_span_per_cell_plus_a_sweep_span(self, tmp_path):
        result, records = self._run(tmp_path, workers=0)
        cells = [r for r in records if r["span"] == "cell_execute"]
        [sweep] = [r for r in records if r["span"] == "sweep"]
        assert len(cells) == len(result.results)
        assert sweep["executor"] == "serial"
        assert sweep["cells"] == len(result.results)
        for record in cells:
            assert set(record) == CELL_EXECUTE_KEYS
            assert record["kind"] == "stationary"
        assert set(sweep) == SWEEP_KEYS
        assert sorted(r["cell_id"] for r in cells) == sorted(
            cell.cell_id for cell in result.results)

    def test_workers2_spans_reach_the_same_file_via_the_environment(self, tmp_path):
        result, records = self._run(tmp_path, workers=2)
        cells = [r for r in records if r["span"] == "cell_execute"]
        [sweep] = [r for r in records if r["span"] == "sweep"]
        assert sweep["executor"] == "dist"
        assert sweep["workers"] == 2
        assert len(cells) == len(result.results)
        for record in cells:
            assert set(record) == CELL_EXECUTE_KEYS
        # the child processes attribute their own spans
        assert all(record["worker"] for record in cells)

    def test_untelemetered_runs_write_nothing(self, tmp_path):
        run_sweep("thrashing", scale=ExperimentScale.smoke(), workers=0)
        assert list(tmp_path.iterdir()) == []


class TestTelemetryDoesNotPerturb:
    def test_telemetered_metrics_equal_untelemetered_metrics(self, tmp_path):
        plain = run_sweep("thrashing", scale=ExperimentScale.smoke(), workers=0)
        with telemetry_to(str(tmp_path / "t.jsonl")):
            telemetered = run_sweep("thrashing", scale=ExperimentScale.smoke(),
                                    workers=0)
        assert [dict(c.metrics) for c in plain.results] \
            == [dict(c.metrics) for c in telemetered.results]


class TestDistSpans:
    def test_dist_cluster_emits_coordinator_and_worker_spans(self, tmp_path):
        from repro.dist.coordinator import DistributedExecutor
        from repro.runner.registry import build_sweep

        path = tmp_path / "dist.jsonl"
        spec = build_sweep("thrashing", scale=ExperimentScale.smoke())
        with telemetry_to(str(path)):
            with DistributedExecutor(local_workers=2) as executor:
                result = run_sweep(spec, executor=executor)
        records = read_jsonl(path)
        spans = {record["span"] for record in records}
        assert {"worker_join", "dispatch", "cell_result",
                "cell_execute"} <= spans
        dispatches = [r for r in records if r["span"] == "dispatch"]
        assert len(dispatches) == len(result.results)
        for record in dispatches:
            assert record["queue_wait"] >= 0.0
            assert record["peer"]
        cell_results = [r for r in records if r["span"] == "cell_result"]
        assert len(cell_results) == len(result.results)
        executes = [r for r in records if r["span"] == "cell_execute"]
        assert len(executes) == len(result.results)
        # the remote workers wrote their own spans into the shared file
        assert {r["worker"] for r in executes} \
            == {r["peer"] for r in dispatches}

    def test_an_in_process_worker_names_only_its_own_spans(self, tmp_path):
        from repro.dist.coordinator import DistributedExecutor
        from repro.dist.worker import Worker
        from repro.runner.cells import execute_run_spec
        from repro.runner.registry import build_sweep

        path = tmp_path / "named.jsonl"
        cell = build_sweep("thrashing", scale=ExperimentScale.smoke()).cells[0]
        default = worker_name()
        after_run = {}

        def serve(address):
            Worker(address, name="w1", connect_retry=5.0).run()
            after_run["name"] = worker_name()

        with telemetry_to(str(path)):
            with DistributedExecutor() as executor:
                thread = threading.Thread(target=serve, args=(executor.bound_address,),
                                          daemon=True)
                thread.start()
                executor.wait_for_workers(1)
                executor.execute(execute_run_spec, [cell])
            thread.join(timeout=30)
        assert not thread.is_alive()
        records = read_jsonl(path)
        [execute] = [r for r in records if r["span"] == "cell_execute"]
        assert execute["worker"] == "w1"
        coordinator = [r for r in records if r["span"] != "cell_execute"]
        assert {r["span"] for r in coordinator} == \
            {"worker_join", "dispatch", "cell_result", "sweep", "worker_leave"}
        assert {r["worker"] for r in coordinator} == {default}
        # the worker's thread gets the default back when run() returns
        assert after_run["name"] == worker_name() == default
