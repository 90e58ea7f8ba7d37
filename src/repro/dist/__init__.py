"""Distributed sweep execution: coordinator and workers.

The paper's evaluation grid is embarrassingly parallel and every cell is a
deterministic function of its picklable spec, so fanning cells out — to
local processes or to other hosts — is a dispatch problem, not a
simulation problem.  This package solves it with a small TCP protocol,
which is the only way a cell leaves the calling process (``workers=N``
runs on ``DistributedExecutor(local_workers=N)``):

* :mod:`~repro.dist.protocol` — length-prefixed pickle framing, and the
  :class:`~repro.dist.protocol.ConnectionServer` behind every listening
  port;
* :mod:`~repro.dist.coordinator` — :class:`DistributedExecutor`, serving
  cells from a work queue to connected workers and reassembling results in
  deterministic cell order, re-queueing the in-flight cells of dead
  workers (the sweep completes as long as one worker survives); with
  ``local_workers=N`` it also spawns, waits for and reaps N localhost
  worker subprocesses;
* :mod:`~repro.dist.worker` — the cell-executing loop with heartbeats;
* :mod:`~repro.dist.cluster` — :func:`spawn_local_workers`, which starts
  those subprocesses.

A finished sweep leaves one artifact wherever it ran: the results document
of :func:`~repro.runner.api.results_document`, which
``repro-dist-coordinator --archive DIR`` writes and the sweep service
serves; the mean ± CI table is a view of it.  This package never imports
:mod:`repro.svc`.

The determinism contract: for any worker count, join order, or mid-run
worker crash, a sweep's results are bit-identical to
:class:`~repro.runner.executor.SerialExecutor` — asserted against the
golden trajectories in ``tests/golden/`` and ``tests/dist/``.
"""

from repro.dist.cluster import spawn_local_workers
from repro.dist.coordinator import DistributedExecutor
from repro.dist.protocol import (
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)


def __getattr__(name):
    # lazy: ``python -m repro.dist.worker`` (how local workers are
    # spawned) imports this package first, and an eager import of the
    # worker module here would make runpy warn about re-executing it
    if name == "Worker":
        from repro.dist.worker import Worker

        return Worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "spawn_local_workers",
    "DistributedExecutor",
    "ConnectionClosed",
    "ProtocolError",
    "recv_message",
    "send_message",
    "Worker",
]
