"""End-to-end distributed execution tests over real localhost sockets.

The acceptance contract of the ``repro.dist`` subsystem: for any worker
count, join order, or mid-sweep worker crash, a sweep executed through the
:class:`~repro.dist.coordinator.DistributedExecutor` produces results
bit-identical to :class:`~repro.runner.executor.SerialExecutor` — checked
here against both a fresh serial run and the checked-in golden trajectory
fixtures.
"""

import importlib
import importlib.util
import json
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dist import protocol
from repro.dist.cluster import spawn_local_workers
from repro.dist.coordinator import DistributedExecutor
from repro.dist.worker import Worker
from repro.experiments.config import ExperimentScale
from repro.runner.api import run_sweep
from repro.runner.cells import execute_run_spec
from repro.runner.errors import CellExecutionError
from repro.runner.executor import SerialExecutor
from repro.runner.registry import build_sweep

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

# single source of truth for the canonical golden serialisation: the regen
# tool, loaded by path exactly as tests/golden/test_golden_trajectories.py does
_TOOL_PATH = GOLDEN_DIR.parent.parent / "tools" / "regen_goldens.py"
if "regen_goldens" in sys.modules:
    regen_goldens = sys.modules["regen_goldens"]
else:
    _spec = importlib.util.spec_from_file_location("regen_goldens", _TOOL_PATH)
    regen_goldens = importlib.util.module_from_spec(_spec)
    sys.modules["regen_goldens"] = regen_goldens
    _spec.loader.exec_module(regen_goldens)

_canonical = regen_goldens.canonical_json


@pytest.fixture(scope="module")
def thrashing_spec():
    return build_sweep("thrashing", scale=ExperimentScale.smoke())


@pytest.fixture(scope="module")
def thrashing_serial(thrashing_spec):
    return SerialExecutor().execute(execute_run_spec, thrashing_spec.cells)


def _reap(processes):
    """Wait for worker processes a test spawned itself; kill a stuck one."""
    for process in processes:
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _started_since(before, *prefixes):
    """Names of live threads started after ``before`` whose name matches."""
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(prefixes)]


def _assert_identical(distributed, serial):
    assert [r.cell_id for r in distributed] == [r.cell_id for r in serial]
    for left, right in zip(serial, distributed):
        # exact equality: the distributed run must be bitwise identical
        assert left.metrics == right.metrics, left.cell_id


class TestLocalClusterEndToEnd:
    """A coordinator with local worker subprocesses: ``local_workers=N``."""

    def test_two_workers_bitwise_identical_to_serial_and_golden(
            self, thrashing_spec, thrashing_serial):
        with DistributedExecutor(local_workers=2) as executor:
            distributed = executor.execute(execute_run_spec, thrashing_spec.cells)
        _assert_identical(distributed, thrashing_serial)

        # and identical to the checked-in golden trajectory fixture
        golden = json.loads((GOLDEN_DIR / "thrashing.json").read_text())
        assert len(distributed) == len(golden["cells"])
        for result, golden_cell in zip(distributed, golden["cells"]):
            assert result.cell_id == golden_cell["cell_id"]
            assert _canonical(dict(result.metrics)) == \
                _canonical(golden_cell["metrics"])

    @pytest.mark.parametrize("cells_before_crash", [0, 1])
    def test_worker_killed_mid_sweep_completes_identically(self, cells_before_crash):
        spec = build_sweep("fig12_stationary", scale=ExperimentScale.smoke())
        serial = SerialExecutor().execute(execute_run_spec, spec.cells)
        # worker 0 dies abruptly (os._exit) when accepting the cell after
        # its first `cells_before_crash` — a crashed host with work in flight
        with DistributedExecutor(heartbeat_timeout=5.0) as executor:
            processes = spawn_local_workers(
                executor.bound_address, 2,
                fail_after_cells={0: cells_before_crash})
            try:
                executor.wait_for_workers(2)
                distributed = executor.execute(execute_run_spec, spec.cells)
                assert processes[0].wait(timeout=30) == 17
            finally:
                executor.close()
                _reap(processes)
        _assert_identical(distributed, serial)

    def test_repeated_sweeps_on_one_cluster(self, thrashing_spec, thrashing_serial):
        with DistributedExecutor(local_workers=2) as executor:
            first = executor.execute(execute_run_spec, thrashing_spec.cells)
            second = executor.execute(execute_run_spec, thrashing_spec.cells)
        _assert_identical(first, thrashing_serial)
        _assert_identical(second, thrashing_serial)

    def test_run_sweep_accepts_a_cluster_as_executor(self, thrashing_spec,
                                                     thrashing_serial):
        with DistributedExecutor(local_workers=2) as executor:
            result = run_sweep(thrashing_spec, executor=executor)
        _assert_identical(result.results, thrashing_serial)
        assert [a.cell_id for a in result.aggregates] == \
            [r.cell_id for r in thrashing_serial]


class TestTasksThatCannotTravel:
    """A sweep whose task cannot reach a worker fails at once, naming the cause.

    Both workers stay connected and serve the next sweep; before, the
    workers died (or the coordinator's serving threads did) and the sweep
    only ended with "no workers connected" after ``worker_timeout``.
    """

    def test_undecodable_task_fails_the_sweep_naming_the_cell(
            self, thrashing_spec, tmp_path, monkeypatch):
        # a module this process can import but the workers cannot
        (tmp_path / "parent_only_cells.py").write_text(
            "def identity(cell):\n    return cell\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        parent_only = importlib.import_module("parent_only_cells")
        with DistributedExecutor(local_workers=2, worker_timeout=5.0) as executor:
            started = time.monotonic()
            with pytest.raises(CellExecutionError) as caught:
                executor.execute(parent_only.identity, thrashing_spec.cells)
            assert time.monotonic() - started < 5.0
            assert caught.value.cell_id in {cell.cell_id for cell in thrashing_spec.cells}
            assert caught.value.cell_id in str(caught.value)
            assert "No module named 'parent_only_cells'" in str(caught.value)
            assert executor.workers == 2
            assert executor.execute(len, ["ab"]) == [2]
        assert [process.returncode for process in executor.processes] == [0, 0]

    def test_unpicklable_function_fails_the_sweep_at_once(self, thrashing_spec):
        with DistributedExecutor(local_workers=2, worker_timeout=5.0) as executor:
            started = time.monotonic()
            with pytest.raises((pickle.PicklingError, AttributeError),
                               match="Can't pickle"):
                executor.execute(lambda cell: cell, thrashing_spec.cells)
            assert time.monotonic() - started < 5.0
            assert executor.workers == 2
            assert executor.execute(len, ["ab"]) == [2]
        assert [process.returncode for process in executor.processes] == [0, 0]


# ----------------------------------------------------------------------
# in-process workers: exercise the worker loop under coverage and drive
# targeted failure modes deterministically
# ----------------------------------------------------------------------
def _start_thread_worker(address, **options) -> threading.Thread:
    worker = Worker(address, connect_retry=30.0, **options)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


def _explode(item):
    raise ValueError("injected cell failure")


def _slow_identity(value):
    time.sleep(value)
    return value


class TestDistributedExecutorBehaviour:
    def test_empty_items(self):
        with DistributedExecutor("127.0.0.1:0") as executor:
            assert executor.execute(_slow_identity, []) == []

    def test_wait_for_workers_times_out(self):
        with DistributedExecutor("127.0.0.1:0") as executor:
            with pytest.raises(TimeoutError, match="0 of 1 workers"):
                executor.wait_for_workers(1, timeout=0.2)

    def test_cell_error_propagates_with_cell_identity(self, thrashing_spec):
        with DistributedExecutor("127.0.0.1:0") as executor:
            _start_thread_worker(executor.bound_address)
            executor.wait_for_workers(1)
            with pytest.raises(CellExecutionError) as caught:
                executor.execute(_explode, thrashing_spec.cells)
            first_cell = thrashing_spec.cells[0].cell_id
            assert caught.value.cell_id == first_cell
            assert first_cell in str(caught.value)
            assert "injected cell failure" in str(caught.value)
            # the worker survives its cell's error; the executor stays usable
            assert executor.execute(_slow_identity, [0.0, 0.0]) == [0.0, 0.0]

    def test_trivial_cells_dispatch_without_a_delayed_ack_stall(self):
        # the worker writes result, then ready, then waits for a task: if
        # either end held back a small frame (Nagle's algorithm), each cell
        # would wait out the peer's delayed ACK, >= 40 ms on Linux, so 60
        # cells would take > 2.4 s whatever the host's load
        with DistributedExecutor("127.0.0.1:0") as executor:
            _start_thread_worker(executor.bound_address)
            executor.wait_for_workers(1)
            assert executor.execute(_slow_identity, [0.0]) == [0.0]
            started = time.monotonic()
            assert executor.execute(_slow_identity, [0.0] * 60) == [0.0] * 60
            assert time.monotonic() - started < 1.0

    def test_heartbeats_keep_slow_cells_alive(self):
        # the cell takes 3x the heartbeat timeout; without heartbeats the
        # coordinator would declare the worker dead and requeue forever
        with DistributedExecutor("127.0.0.1:0",
                                 heartbeat_timeout=1.0) as executor:
            _start_thread_worker(executor.bound_address,
                                 heartbeat_interval=0.25)
            executor.wait_for_workers(1)
            assert executor.execute(_slow_identity, [3.0]) == [3.0]

    def test_silent_worker_is_declared_dead_and_cell_reassigned(self):
        # a worker that accepts a cell and then goes silent (no heartbeat,
        # connection still open) must lose the cell to a live worker
        with DistributedExecutor("127.0.0.1:0",
                                 heartbeat_timeout=1.0) as executor:
            host, port = protocol.parse_address(executor.bound_address)
            silent = socket.create_connection((host, port))
            try:
                protocol.send_message(silent, (protocol.MSG_HELLO, "silent"))
                protocol.send_message(silent, (protocol.MSG_READY,))
                executor.wait_for_workers(1)

                collected = {}

                def consume():
                    collected["results"] = executor.execute(
                        _slow_identity, [0.0, 0.0])

                consumer = threading.Thread(target=consume, daemon=True)
                consumer.start()
                # the silent worker receives the first cell... and stalls
                task = protocol.recv_message(silent)
                assert task[0] == protocol.MSG_TASK
                # a live worker joins; after the heartbeat timeout it must
                # inherit the orphaned cell and finish the sweep
                _start_thread_worker(executor.bound_address,
                                     heartbeat_interval=0.25)
                consumer.join(timeout=30)
                assert not consumer.is_alive(), "sweep never completed"
                assert collected["results"] == [0.0, 0.0]
            finally:
                silent.close()

    def test_sweep_with_no_workers_stalls_out(self):
        with DistributedExecutor("127.0.0.1:0",
                                 worker_timeout=0.5) as executor:
            with pytest.raises(RuntimeError, match="no workers connected"):
                executor.execute(_slow_identity, [0.0])

    def test_requeue_refreshes_the_stall_timer(self):
        # regression: _requeue_in_flight used to leave last_progress at the
        # time of the last *result*, so losing the only worker deep into a
        # long cell made the zero-worker stall timer fire before a
        # replacement worker had its full grace period
        from repro.dist.coordinator import _SweepState, _WorkerState

        with DistributedExecutor("127.0.0.1:0", worker_timeout=5.0) as executor:
            sweep = _SweepState(generation=1, function=_slow_identity,
                                items=[0.0])
            sweep.pending.clear()  # the one cell is out with the worker
            worker = _WorkerState(name="doomed", sock=None)
            worker.in_flight = (1, 0)
            stale = time.monotonic() - 100.0
            with executor._state:
                executor._sweep = sweep
                sweep.last_progress = stale
                executor._requeue_in_flight(worker)
                assert list(sweep.pending) == [0]
                # the hand-back counts as progress: the timer restarts now
                assert sweep.last_progress > stale + 50.0
                executor._check_stalled(sweep)  # must not raise
                executor._sweep = None

    def test_replacement_worker_gets_a_full_grace_period_after_a_crash(self):
        # behavioural version: the only worker holds the single cell for
        # longer than worker_timeout and then dies; the requeue must restart
        # the stall clock so a promptly joining replacement finishes the sweep
        with DistributedExecutor("127.0.0.1:0", worker_timeout=1.5,
                                 heartbeat_timeout=30.0) as executor:
            host, port = protocol.parse_address(executor.bound_address)
            doomed = socket.create_connection((host, port))
            try:
                protocol.send_message(doomed, (protocol.MSG_HELLO, "doomed"))
                protocol.send_message(doomed, (protocol.MSG_READY,))
                executor.wait_for_workers(1)

                collected = {}

                def consume():
                    collected["results"] = executor.execute(
                        _slow_identity, [0.0])

                consumer = threading.Thread(target=consume, daemon=True)
                consumer.start()
                task = protocol.recv_message(doomed)
                assert task[0] == protocol.MSG_TASK
                # hold the cell past worker_timeout, then crash: without the
                # fix the stall timer (measuring from sweep start) expires
                # the moment the requeue leaves zero workers connected
                time.sleep(2.0)
            finally:
                doomed.close()
            _start_thread_worker(executor.bound_address)
            consumer.join(timeout=30)
            assert not consumer.is_alive(), "sweep never completed"
            assert collected["results"] == [0.0]

    def test_close_mid_sweep_fails_the_consumer_promptly(self):
        # closing must not leave a blocked consumer waiting out the full
        # worker_timeout; it fails fast with the outstanding cell count
        executor = DistributedExecutor("127.0.0.1:0", worker_timeout=600.0)
        outcome = {}

        def consume():
            try:
                executor.execute(_slow_identity, [0.0])
            except RuntimeError as exc:
                outcome["error"] = str(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        time.sleep(0.3)
        executor.close()
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "consumer survived close()"
        assert "closed with 1 cells outstanding" in outcome["error"]

    def test_closed_executor_rejects_new_sweeps(self):
        executor = DistributedExecutor("127.0.0.1:0")
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.execute(_slow_identity, [0.0])

    def test_close_wakes_and_joins_every_thread_it_started(self):
        # a thread blocked in accept() or in a silent peer's recv() must not
        # outlive close(), nor log into streams its test has since closed
        before = set(threading.enumerate())
        executor = DistributedExecutor("127.0.0.1:0")
        worker = Worker(executor.bound_address, connect_retry=30.0)
        threading.Thread(target=worker.run, daemon=True).start()
        executor.wait_for_workers(1)
        silent = socket.create_connection(
            protocol.parse_address(executor.bound_address))  # never says hello
        try:
            for _ in range(500):
                if len(_started_since(before, "dist-serve-")) == 2:
                    break
                time.sleep(0.01)
            assert len(_started_since(before, "dist-serve-")) == 2
            executor.close()
            assert _started_since(before, "dist-accept", "dist-serve-") == []
        finally:
            silent.close()


class TestConsoleEntryPoints:
    def test_coordinator_main_with_local_workers_and_archive(self, tmp_path, capsys):
        from repro.dist import coordinator

        exit_code = coordinator.main([
            "thrashing", "--scale", "smoke", "--local-workers", "2",
            "--min-workers", "2", "--worker-wait", "60",
            "--archive", str(tmp_path),
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        # diagnostics are logged to stderr; the result table stays on stdout
        assert "T [txn/s]" in captured.out
        output = captured.out + captured.err
        assert "coordinator listening on" in output
        assert "2 worker(s) connected" in output
        assert "cells/s" in output
        assert "results document written to" in output
        [document] = tmp_path.glob("*.json")
        assert document.name == "thrashing__smoke__r1.json"
        cells = json.loads(document.read_text(encoding="utf-8"))["cells"]
        assert [cell["cell_id"] for cell in cells] == \
            [cell.cell_id for cell in build_sweep("thrashing", scale=ExperimentScale.smoke()).cells]

    def test_worker_main_serves_until_shutdown(self, capsys):
        from repro.dist import worker

        with DistributedExecutor("127.0.0.1:0") as executor:
            outcome = {}

            def run_main():
                outcome["exit"] = worker.main(
                    ["--connect", executor.bound_address, "--name", "cli-worker"])

            thread = threading.Thread(target=run_main, daemon=True)
            thread.start()
            executor.wait_for_workers(1)
            assert executor.execute(_slow_identity, [0.0, 0.0]) == [0.0, 0.0]
            executor.close()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert outcome["exit"] == 0
        captured = capsys.readouterr()
        assert "executed 2 cell(s)" in captured.out + captured.err


class TestRunSweepOverAnAddress:
    def test_run_sweep_address_plumbing(self, thrashing_spec, thrashing_serial):
        # reserve an ephemeral port, start a retrying worker on it, and let
        # it join once the executor handed to run_sweep has bound it
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        address = f"127.0.0.1:{port}"
        _start_thread_worker(address)
        with DistributedExecutor(address) as executor:
            result = run_sweep(thrashing_spec, executor=executor)
        _assert_identical(result.results, thrashing_serial)
