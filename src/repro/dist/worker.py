"""Worker side of distributed sweep execution.

A :class:`Worker` connects to a coordinator, pulls one cell at a time
(``ready`` -> ``task``), executes it, and streams the result back.  While
a cell executes — seconds to minutes of pure simulation — a background
thread sends heartbeats so the coordinator keeps trusting the connection;
a worker that stops heartbeating (killed host, severed network) has its
in-flight cell re-queued there.

Cell failures go through :func:`~repro.runner.errors.run_with_cell_context`:
the coordinator receives a
:class:`~repro.runner.errors.CellExecutionError` naming the failing cell,
not a bare remote traceback.  A worker survives its own cell errors — it
reports them and keeps serving.  So it does when a task frame does not
decode (its function or cell cannot be imported in this interpreter): it
answers with a task error, which the coordinator raises naming the cell.

``main`` is the ``repro-dist-worker`` console entry point (also runnable
as ``python -m repro.dist.worker``, which is how
:func:`~repro.dist.cluster.spawn_local_workers` — and so every
``workers=N`` sweep — starts local workers).
``--fail-after-cells N`` is deliberate fault injection for the
fault-tolerance tests: the worker accepts its ``N+1``-th cell and then
dies abruptly (``os._exit``), exactly like a crashed host with a cell in
flight.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import threading
import time
from typing import Optional

from repro.dist import protocol
from repro.obs import telemetry
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
from repro.runner.errors import CellExecutionError, run_with_cell_context

logger = logging.getLogger("repro.dist.worker")


class Worker:
    """One cell-executing loop bound to a coordinator address."""

    def __init__(self, address: str, *,
                 name: Optional[str] = None,
                 heartbeat_interval: float = 1.0,
                 connect_retry: float = 0.0,
                 fail_after_cells: Optional[int] = None):
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.address = address
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_interval = float(heartbeat_interval)
        self.connect_retry = float(connect_retry)
        self.fail_after_cells = fail_after_cells
        #: cells executed over the worker's lifetime (successes and errors)
        self.cells_executed = 0

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_retry
        while True:
            try:
                return protocol.connect(self.address)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def _heartbeat_loop(self, send, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                send((MSG_HEARTBEAT,))
            except OSError:
                return

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve cells until the coordinator shuts the connection down.

        Returns the number of cells executed.  A vanished coordinator ends
        the loop cleanly (the results it missed are simply lost — it is
        the coordinator that owns re-queueing, not the worker).
        """
        # spans emitted while executing cells (cell_execute) carry the
        # worker's announced name, matching the coordinator's logs; the
        # name is this thread's only, and only until the loop ends
        telemetry.set_worker_name(self.name)
        try:
            return self._serve()
        finally:
            telemetry.set_worker_name(None)

    def _serve(self) -> int:
        sock = self._connect()
        send_lock = threading.Lock()

        def send(message) -> None:
            # the heartbeat thread shares the socket with the main loop;
            # the lock keeps frames whole on the wire
            with send_lock:
                protocol.send_message(sock, message)

        try:
            send((MSG_HELLO, self.name))
            while True:
                send((MSG_READY,))
                sock.settimeout(None)  # idle waits between sweeps are unbounded
                try:
                    message = protocol.recv_message(sock)
                except ProtocolError as exc:
                    if exc.__cause__ is None:  # an oversized frame: the stream is lost
                        raise
                    # the whole frame was read but did not unpickle: report
                    # it against the cell in flight and keep serving
                    send((MSG_TASK_ERROR, None, None, str(exc)))
                    continue
                kind = message[0]
                if kind == MSG_SHUTDOWN:
                    return self.cells_executed
                if kind != MSG_TASK:
                    raise ProtocolError(f"expected a task, got {kind!r}")
                _, generation, index, function, item = message
                if (self.fail_after_cells is not None
                        and self.cells_executed >= self.fail_after_cells):
                    # fault injection: die like a crashed host, cell in flight
                    os._exit(17)
                stop = threading.Event()
                heartbeats = threading.Thread(
                    target=self._heartbeat_loop, args=(send, stop),
                    name="dist-heartbeat", daemon=True,
                )
                heartbeats.start()
                error = None
                payload = None
                try:
                    try:
                        payload = run_with_cell_context(function, item)
                    except CellExecutionError as exc:
                        error = exc
                finally:
                    stop.set()
                    heartbeats.join()
                if error is not None:
                    send((MSG_TASK_ERROR, generation, index, error))
                else:
                    send((MSG_RESULT, generation, index, payload))
                self.cells_executed += 1
        except (ConnectionClosed, ConnectionError, OSError):
            return self.cells_executed
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass


# ----------------------------------------------------------------------
# console entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """``repro-dist-worker``: join a coordinator and execute cells."""
    parser = argparse.ArgumentParser(
        prog="repro-dist-worker",
        description="Connect to a repro-dist-coordinator and execute sweep cells.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to join")
    parser.add_argument("--name", default=None,
                        help="worker name shown by the coordinator (default: host-pid)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="heartbeat period while executing a cell (default: 1)")
    parser.add_argument("--retry", type=float, default=0.0, metavar="SECONDS",
                        help="keep retrying the initial connection this long "
                             "(lets workers start before the coordinator)")
    # fault injection for the fault-tolerance tests; hidden from --help
    parser.add_argument("--fail-after-cells", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true",
                        help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true",
                        help="log debug diagnostics")
    args = parser.parse_args(argv)
    telemetry.configure_cli_logging(verbose=args.verbose, quiet=args.quiet)

    worker = Worker(
        args.connect,
        name=args.name,
        heartbeat_interval=args.heartbeat_interval,
        connect_retry=args.retry,
        fail_after_cells=args.fail_after_cells,
    )
    cells = worker.run()
    logger.info("worker %s: executed %d cell(s)", worker.name, cells)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    raise SystemExit(main())
