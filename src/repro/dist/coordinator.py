"""Coordinator side of distributed sweep execution.

:class:`DistributedExecutor` implements the same two-method executor
interface as :class:`~repro.runner.executor.SerialExecutor` — ``map``
streams results back in the items' order, ``execute`` collects them — but
fans the cells out over *networked* workers.  It is the only way a cell
leaves the calling process (``workers=N`` runs one with ``N`` local worker
subprocesses, and the sweep service wraps one too):

* it binds a TCP address and accepts ``repro-dist-worker`` connections at
  any time, including mid-sweep (late workers simply start pulling cells);
* with ``local_workers=N`` it also spawns ``N`` worker subprocesses on
  this host, waits until they have joined, and reaps them on ``close``;
* each connected worker pulls one cell at a time (``ready`` -> ``task``),
  so fast hosts naturally take more cells than slow ones;
* results are reassembled into the items' submission order, so a sweep's
  result stream is deterministic regardless of worker count, join order or
  which worker finished first;
* a worker that dies or goes silent (no heartbeat within
  ``heartbeat_timeout``) has its in-flight cell re-queued at the *front*
  of the work queue — the ordered result stream is usually blocked on
  exactly that cell — and re-assigned to a surviving worker.  The sweep
  completes as long as one worker survives.

Determinism contract: a cell's result depends only on its spec, never on
the worker that ran it, so the reassembled results are bit-identical to a
:class:`~repro.runner.executor.SerialExecutor` run of the same spec —
asserted against the golden trajectories in ``tests/golden/`` and
``tests/dist/``.

A cell that *raises* (as opposed to a worker that *dies*) is not retried:
the error — a :class:`~repro.runner.errors.CellExecutionError` naming the
cell — is forwarded to the coordinator and re-raised out of ``map``.
Retrying a deterministic failure would loop forever; dying workers, by
contrast, are environmental and their cells are safely re-run.  A task
that cannot travel fails its sweep the same way, at once: one the
coordinator cannot pickle raises the pickling error, and one a worker
cannot unpickle (say, a function the worker's interpreter cannot import)
comes back as an error naming the cell, while the worker keeps serving.

``main`` is the ``repro-dist-coordinator`` console entry point: it runs a
named registry scenario over the cluster, prints the replicate-aggregate
table, and with ``--archive DIR`` writes the run's results document
(:func:`~repro.runner.api.results_document`, canonical JSON) to
``DIR/<scenario>__<scale>__r<replicates>.json``: the bytes a serial run or
the sweep service gives for the same cells.
"""

from __future__ import annotations

import argparse
import collections
import logging
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.dist import cluster, protocol
from repro.experiments.config import SCALE_PRESETS, scale_preset
from repro.obs import telemetry
from repro.runner.errors import cell_error
from repro.runner.executor import timed_execute
from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_TASK_ERROR,
    ConnectionClosed,
    ProtocolError,
)

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

logger = logging.getLogger("repro.dist.coordinator")


class _WorkerState:
    """Coordinator-side bookkeeping for one connected worker."""

    __slots__ = ("name", "sock", "send_lock", "in_flight", "cells_done",
                 "dispatched_at", "last_recv", "max_gap")

    def __init__(self, name: str, sock: socket.socket):
        self.name = name
        self.sock = sock
        #: serialises frames when close() races the serving thread
        self.send_lock = threading.Lock()
        #: (generation, item index) while a task is out, else None
        self.in_flight = None
        self.cells_done = 0
        #: monotonic dispatch time of the in-flight cell (telemetry)
        self.dispatched_at = 0.0
        #: monotonic time of the last message received from this worker
        self.last_recv = time.monotonic()
        #: largest observed silence between two messages (heartbeat gap)
        self.max_gap = 0.0

    def observe_recv(self) -> None:
        """A message arrived: update the heartbeat-gap statistics."""
        now = time.monotonic()
        self.max_gap = max(self.max_gap, now - self.last_recv)
        self.last_recv = now

    def send(self, message) -> None:
        with self.send_lock:
            protocol.send_message(self.sock, message)


class _SweepState:
    """One ``map`` call: the work queue and the reassembly buffer."""

    __slots__ = ("generation", "function", "items", "pending", "results",
                 "error", "last_progress", "queued_since")

    def __init__(self, generation: int, function, items):
        self.generation = generation
        self.function = function
        self.items = items
        #: item index -> result, drained in order by the consumer
        self.results = {}
        self.pending = collections.deque(range(len(items)))
        self.error: Optional[BaseException] = None
        self.last_progress = time.monotonic()
        #: item index -> monotonic time it (re-)entered the queue; the
        #: dispatch telemetry span reports the difference as queue_wait
        now = self.last_progress
        self.queued_since = {index: now for index in self.pending}


class DistributedExecutor:
    """Serve sweep cells to networked workers; reassemble ordered results.

    ``address`` is ``"host:port"``; port 0 binds an ephemeral port (read
    the actual one back from :attr:`bound_address`).  ``local_workers=N``
    spawns ``N`` ``python -m repro.dist.worker`` subprocesses pointed at
    it and waits until they have joined; :attr:`processes` holds their
    handles and :meth:`close` reaps them.  ``heartbeat_timeout`` is how
    long a silent worker is trusted before its in-flight cell is
    re-queued; ``worker_timeout`` bounds how long a sweep waits with
    *zero* connected workers before giving up.
    """

    def __init__(self, address: str = "127.0.0.1:0", *,
                 local_workers: int = 0,
                 heartbeat_timeout: float = 30.0,
                 worker_timeout: float = 600.0):
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be positive, got {heartbeat_timeout}")
        if worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {worker_timeout}")
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._worker_timeout = float(worker_timeout)
        #: one lock+condition guards _workers, _sweep, _closed, _generation
        self._state = threading.Condition()
        self._workers: set = set()
        self._closed = False
        self._generation = 0
        self._sweep: Optional[_SweepState] = None
        #: the local worker subprocesses this executor spawned
        self.processes: List[subprocess.Popen] = []
        self._server = protocol.ConnectionServer(address, self._serve_worker, "dist")
        if local_workers:
            try:
                self.processes = cluster.spawn_local_workers(self.bound_address,
                                                             local_workers)
                self.wait_for_workers(local_workers)
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    # executor interface
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of currently connected workers."""
        with self._state:
            return len(self._workers)

    @property
    def bound_address(self) -> str:
        """The actual ``host:port`` workers should connect to."""
        return self._server.address

    def map(self, function: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> Iterator[ResultT]:
        """Serve ``items`` to the cluster, yielding results in item order."""
        materialised = list(items)

        def stream() -> Iterator[ResultT]:
            if not materialised:
                return
            with self._state:
                if self._closed:
                    raise RuntimeError("the executor is closed")
                if self._sweep is not None:
                    raise RuntimeError(
                        "another sweep is already running on this executor"
                    )
                self._generation += 1
                sweep = _SweepState(self._generation, function, materialised)
                self._sweep = sweep
                self._state.notify_all()
            try:
                for index in range(len(materialised)):
                    with self._state:
                        while sweep.error is None and index not in sweep.results:
                            self._check_stalled(sweep)
                            self._state.wait(timeout=0.5)
                        if sweep.error is not None:
                            raise sweep.error
                        value = sweep.results.pop(index)
                    yield value
            finally:
                with self._state:
                    self._sweep = None
                    self._state.notify_all()

        return stream()

    def execute(self, function: Callable[[ItemT], ResultT],
                items: Iterable[ItemT]) -> List[ResultT]:
        """Apply ``function`` to every item and return the ordered results."""
        return timed_execute(self, "dist", self.map(function, items))

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> int:
        """Block until ``count`` workers are connected; return the count."""
        deadline = time.monotonic() + timeout
        with self._state:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"only {len(self._workers)} of {count} workers joined "
                        f"{self.bound_address} within {timeout:.0f}s"
                    )
                self._state.wait(timeout=min(remaining, 0.5))
            return len(self._workers)

    def close(self) -> None:
        """Tell connected workers to shut down, close the port, reap local workers.

        The port's threads are joined within a bounded wait; a local worker
        still running 15 s later is killed.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._state.notify_all()
        for worker in workers:
            try:
                worker.send((MSG_SHUTDOWN,))
            except OSError:
                pass
        self._server.close()
        for process in self.processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                process.kill()
                process.wait()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistributedExecutor(address={self.bound_address!r}, workers={self.workers})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_stalled(self, sweep: _SweepState) -> None:
        # caller holds self._state
        if self._closed:
            raise RuntimeError(
                "the executor was closed with "
                f"{len(sweep.items) - len(sweep.results)} cells outstanding"
            )
        if self._workers:
            return
        waited = time.monotonic() - sweep.last_progress
        if waited > self._worker_timeout:
            raise RuntimeError(
                f"sweep stalled: no workers connected for {waited:.0f}s "
                f"({len(sweep.results)} of {len(sweep.items)} cells buffered); "
                f"start workers with: repro-dist-worker --connect {self.bound_address}"
            )

    def _serve_worker(self, sock: socket.socket) -> None:
        worker = None
        try:
            sock.settimeout(self._heartbeat_timeout)
            hello = protocol.recv_message(sock)
            if not (isinstance(hello, tuple) and hello and hello[0] == MSG_HELLO):
                raise ProtocolError(f"expected hello, got {hello!r}")
            name = str(hello[1]) if len(hello) > 1 else "worker"
            worker = _WorkerState(name=name, sock=sock)
            with self._state:
                if self._closed:
                    raise ConnectionClosed("executor is closed")
                self._workers.add(worker)
                if self._sweep is not None:
                    self._sweep.last_progress = time.monotonic()
                self._state.notify_all()
            logger.info("worker %s joined", worker.name)
            telemetry.emit("worker_join", peer=worker.name)
            self._worker_loop(worker)
        except (ConnectionClosed, ProtocolError, OSError, EOFError):
            # a vanished or misbehaving worker is an expected event; its
            # in-flight cell is re-queued below and the sweep carries on
            pass
        finally:
            if worker is not None:
                with self._state:
                    self._workers.discard(worker)
                    self._requeue_in_flight(worker)
                    self._state.notify_all()
                logger.info("worker %s left after %d cell(s)",
                            worker.name, worker.cells_done)
                telemetry.emit("worker_leave", peer=worker.name,
                               cells=worker.cells_done,
                               max_heartbeat_gap=worker.max_gap)

    def _requeue_in_flight(self, worker: _WorkerState) -> None:
        # caller holds self._state
        if worker.in_flight is None:
            return
        generation, index = worker.in_flight
        worker.in_flight = None
        sweep = self._sweep
        if (sweep is not None and sweep.generation == generation
                and index not in sweep.results):
            # front of the queue: the ordered result stream is most likely
            # blocked on precisely this orphaned cell
            sweep.pending.appendleft(index)
            # the re-queue is progress: the zero-worker stall timer must
            # measure from this hand-back, not from the last *result* —
            # otherwise losing the only worker deep into a long cell makes
            # the timer fire before a replacement had its full grace period
            sweep.last_progress = time.monotonic()
            sweep.queued_since[index] = sweep.last_progress
            logger.warning("requeued cell %d from lost worker %s",
                           index, worker.name)
            telemetry.emit("requeue", peer=worker.name, index=index)

    def _fail_sweep(self, worker: _WorkerState, error) -> None:
        """End the worker's task with ``error``, failing the sweep it belongs to.

        A non-exception ``error`` is a worker's report that it could not
        decode the task; it is raised as a cell error naming that cell.
        """
        with self._state:
            generation, index = worker.in_flight
            worker.in_flight = None
            sweep = self._sweep
            if (sweep is not None and sweep.generation == generation
                    and sweep.error is None):
                if not isinstance(error, BaseException):
                    error = cell_error(sweep.items[index], str(error))
                sweep.error = error
            self._state.notify_all()

    def _dispatch(self, worker: _WorkerState) -> None:
        """Send a ready worker its next cell, or shut it down."""
        while True:
            task = self._next_task(worker)
            if task is None:
                worker.send((MSG_SHUTDOWN,))
                raise ConnectionClosed("executor closed")
            generation, index, function, item, queued_at = task
            worker.dispatched_at = time.monotonic()
            try:
                worker.send((MSG_TASK, generation, index, function, item))
            except OSError:
                raise
            except Exception as exc:
                # the task failed to pickle, so no byte reached the wire
                # and the worker still waits for one
                self._fail_sweep(worker, exc)
                continue
            telemetry.emit("dispatch", peer=worker.name, index=index,
                           queue_wait=worker.dispatched_at - queued_at)
            return

    def _next_task(self, worker: _WorkerState):
        """Block until a cell can be assigned; None means shut down."""
        with self._state:
            while True:
                if self._closed:
                    return None
                sweep = self._sweep
                if sweep is not None and sweep.error is None and sweep.pending:
                    index = sweep.pending.popleft()
                    worker.in_flight = (sweep.generation, index)
                    queued_at = sweep.queued_since.pop(index, time.monotonic())
                    return (sweep.generation, index, sweep.function,
                            sweep.items[index], queued_at)
                self._state.wait()

    def _worker_loop(self, worker: _WorkerState) -> None:
        sock = worker.sock
        while True:
            # the worker announces readiness promptly after hello/result,
            # so the heartbeat timeout applies here too
            sock.settimeout(self._heartbeat_timeout)
            message = protocol.recv_message(sock)
            worker.observe_recv()
            kind = message[0]
            if kind == MSG_HEARTBEAT:
                continue
            if kind != MSG_READY:
                raise ProtocolError(f"expected ready, got {kind!r}")
            self._dispatch(worker)
            # await the result; heartbeats keep the connection trusted
            # while the (possibly minutes-long) cell executes remotely
            while True:
                sock.settimeout(self._heartbeat_timeout)
                message = protocol.recv_message(sock)
                worker.observe_recv()
                kind = message[0]
                if kind == MSG_HEARTBEAT:
                    continue
                if kind == MSG_RESULT:
                    _, generation, index, payload = message
                    with self._state:
                        worker.in_flight = None
                        worker.cells_done += 1
                        sweep = self._sweep
                        if sweep is not None and sweep.generation == generation:
                            sweep.results[index] = payload
                            sweep.last_progress = time.monotonic()
                        # a stale generation means the sweep this cell
                        # belonged to is gone; drop the payload silently
                        self._state.notify_all()
                    telemetry.emit(
                        "cell_result", peer=worker.name, index=index,
                        duration=time.monotonic() - worker.dispatched_at)
                    break
                if kind == MSG_TASK_ERROR:
                    self._fail_sweep(worker, message[3])
                    break
                raise ProtocolError(
                    f"unexpected message while awaiting a result: {kind!r}"
                )


# ----------------------------------------------------------------------
# console entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """``repro-dist-coordinator``: run a registry scenario over a cluster."""
    parser = argparse.ArgumentParser(
        prog="repro-dist-coordinator",
        description=(
            "Serve a named experiment sweep to repro-dist-worker processes "
            "and print the replicate-aggregate (mean ± CI) table."
        ),
    )
    parser.add_argument("scenario", help="registry scenario name (e.g. fig12_stationary)")
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="address to listen on (default: 127.0.0.1:0, ephemeral port)")
    parser.add_argument("--scale", default="benchmark", choices=SCALE_PRESETS,
                        help="experiment scale preset (default: benchmark)")
    parser.add_argument("--replicates", type=int, default=1,
                        help="independent replicates per cell (default: 1)")
    parser.add_argument("--min-workers", type=int, default=1,
                        help="wait for this many workers before starting (default: 1)")
    parser.add_argument("--worker-wait", type=float, default=300.0, metavar="SECONDS",
                        help="how long to wait for workers (default: 300)")
    parser.add_argument("--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
                        help="declare a silent worker dead after this long (default: 30)")
    parser.add_argument("--local-workers", type=int, default=0, metavar="N",
                        help="also spawn N worker subprocesses on this host")
    parser.add_argument("--archive", type=Path, default=None, metavar="DIR",
                        help="write the run's results document into DIR as "
                             "<scenario>__<scale>__r<replicates>.json")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of the printed mean ± CI table "
                             "(default: 0.95)")
    parser.add_argument("--quiet", action="store_true",
                        help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true",
                        help="log debug diagnostics")
    args = parser.parse_args(argv)
    telemetry.configure_cli_logging(verbose=args.verbose, quiet=args.quiet)

    from repro.canonical import canonical_json
    from repro.experiments.report import format_aggregate_table
    from repro.runner.api import results_document, run_sweep

    scale = scale_preset(args.scale)

    with DistributedExecutor(
        args.bind,
        local_workers=args.local_workers,
        heartbeat_timeout=args.heartbeat_timeout,
        worker_timeout=args.worker_wait,
    ) as executor:
        logger.info("coordinator listening on %s", executor.bound_address)
        executor.wait_for_workers(max(args.min_workers, 1),
                                  timeout=args.worker_wait)
        logger.info("%d worker(s) connected; running %r at %s scale, "
                    "replicates=%d", executor.workers, args.scenario,
                    args.scale, args.replicates)
        started = time.monotonic()
        result = run_sweep(args.scenario, scale=scale,
                           replicates=args.replicates, executor=executor,
                           confidence=args.confidence)
        elapsed = time.monotonic() - started
        cells = len(result.results)
        if elapsed > 0:
            logger.info("%d cells in %.1fs (%.2f cells/s)",
                        cells, elapsed, cells / elapsed)
        else:
            logger.info("%d cells", cells)
        print(format_aggregate_table(result.aggregates))
        if args.archive is not None:
            document = results_document(args.scenario, result.results)
            args.archive.mkdir(parents=True, exist_ok=True)
            path = args.archive / (f"{args.scenario}__{args.scale}"
                                   f"__r{args.replicates}.json")
            path.write_text(canonical_json(document) + "\n", encoding="utf-8")
            logger.info("results document written to %s", path)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI CLI smoke
    raise SystemExit(main())
