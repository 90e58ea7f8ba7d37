"""The persistent sweep service: a FIFO job queue over a result cache and one executor.

A :class:`SweepService` owns a
:class:`~repro.dist.coordinator.DistributedExecutor` (workers connect to
``worker_address`` exactly as they would to a bare coordinator) and keeps
it alive between sweeps.  Clients submit :class:`~repro.runner.specs.RunSpec`
batches — directly or as a named registry scenario — over a tiny TCP
control plane (one request per connection, answered ``svc-ok`` /
``svc-error``; see :mod:`repro.dist.protocol` for the message shapes).

Busy/queue semantics: the wrapped executor runs **one sweep at a time**
(its own standing contract), so the service runs jobs strictly FIFO in
submission order on a single runner thread.  A submission never blocks on
a busy executor — it returns a job id immediately and the job waits in the
queue; ``status`` reports the queue position.  This mirrors the paper's
load-control stance: bounded concurrency with explicit queueing beats
thrashing the executor with interleaved sweeps.

The service, not the executor, consults the cache.  A job looks up every
one of its cells first; only the misses go to the executor, and each fresh
result is stored as the executor's ordered stream yields it (errors never
are).  A job whose every cell hits completes with zero workers connected.
Its ``cache_hits`` and ``cache_misses`` are the outcomes of its own
lookups — the quantity ``tests/svc/test_cache_soundness.py`` pins (a warm
re-submission of any golden scenario is 100% hits and zero simulations).

Results documents are deliberately deterministic (no job ids, no
timestamps): :meth:`SweepService.results` of a warm job is byte-identical
to the cold run's, which is the headline guarantee of the cache.  The
document is :func:`~repro.runner.api.results_document`, the same one a
serial run or ``repro-dist-coordinator --archive`` writes for the cells.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import socket
import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.dist import protocol
from repro.dist.coordinator import DistributedExecutor
from repro.dist.protocol import (
    MSG_SVC_CACHE,
    MSG_SVC_CELLS,
    MSG_SVC_ERROR,
    MSG_SVC_OK,
    MSG_SVC_RESULTS,
    MSG_SVC_SHUTDOWN,
    MSG_SVC_STATUS,
    MSG_SVC_SUBMIT,
    ConnectionClosed,
    ProtocolError,
)
from repro.obs import telemetry
from repro.runner.api import results_document
from repro.runner.cells import execute_run_spec
from repro.runner.executor import timed_execute
from repro.runner.specs import RunSpec
from repro.svc.cache import ResultCache

logger = logging.getLogger("repro.svc.service")

#: job lifecycle states, in order
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


class JobRecord:
    """Service-side bookkeeping for one submitted sweep job."""

    __slots__ = ("job_id", "name", "cells", "state", "error", "results",
                 "cache_hits", "cache_misses")

    def __init__(self, job_id: str, name: str, cells: List[RunSpec]):
        self.job_id = job_id
        self.name = name
        self.cells = cells
        self.state = JOB_QUEUED
        self.error: Optional[str] = None
        #: ordered CellResult list once the job is done
        self.results = None
        #: outcomes of this job's own cache lookups
        self.cache_hits = 0
        self.cache_misses = 0

    def status(self, position: Optional[int] = None) -> dict:
        """JSON-able status snapshot (queue position only while queued)."""
        doc = {
            "job_id": self.job_id,
            "name": self.name,
            "state": self.state,
            "n_cells": len(self.cells),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        if self.state == JOB_QUEUED and position is not None:
            doc["position"] = position
        if self.error is not None:
            doc["error"] = self.error
        return doc


def scenario_cells(scenario: str, scale: str = "smoke",
                   replicates: int = 1) -> List[RunSpec]:
    """Lower a named registry scenario into its replicate-expanded cells.

    Exactly the expansion :func:`~repro.runner.api.run_sweep` performs, so
    a service job for a scenario simulates (and caches) the same cells a
    direct run would.
    """
    from repro.experiments.config import scale_preset
    from repro.runner.registry import build_sweep

    spec = build_sweep(scenario, scale=scale_preset(scale))
    return list(spec.with_replicates(replicates).cells)


class SweepService:
    """A persistent sweep executor with a result cache and a FIFO job queue.

    ``worker_bind`` is where ``repro-dist-worker`` processes connect;
    ``control_bind`` is where :class:`~repro.svc.client.ServiceClient`
    (and the ``repro-svc`` CLI) talk to the service.  Both accept port 0
    for an ephemeral port — read the bound addresses back from
    :attr:`worker_address` / :attr:`control_address`.  ``cache`` may be a
    ready :class:`~repro.svc.cache.ResultCache`, a directory path, or
    None to run uncached (every cell always simulates).
    ``local_workers``, ``heartbeat_timeout`` and ``worker_timeout`` go to
    the executor.  A constructor that fails closes what it had started.
    """

    def __init__(self, *, worker_bind: str = "127.0.0.1:0",
                 control_bind: str = "127.0.0.1:0",
                 cache=None,
                 local_workers: int = 0,
                 heartbeat_timeout: float = 30.0,
                 worker_timeout: float = 600.0):
        if cache is None or isinstance(cache, ResultCache):
            self._cache = cache
        else:
            self._cache = ResultCache(cache)
        #: guards _jobs, _queue, _next_id, _closed; runner waits on it
        self._state = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: collections.deque = collections.deque()
        self._next_id = 0
        self._closed = False
        #: held for the whole of close()
        self._closing = threading.Lock()
        # the runner starts first: it waits for jobs, which only the control
        # plane (started last) or the caller can submit
        self._runner_thread = threading.Thread(
            target=self._run_loop, name="svc-runner", daemon=True)
        self._runner_thread.start()
        self._executor = self._control = None
        try:
            self._executor = DistributedExecutor(
                worker_bind,
                local_workers=local_workers,
                heartbeat_timeout=heartbeat_timeout,
                worker_timeout=worker_timeout,
            )
            self._control = protocol.ConnectionServer(
                control_bind, self._serve_control, "svc-control")
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------
    @property
    def worker_address(self) -> str:
        """``host:port`` that ``repro-dist-worker`` processes connect to."""
        return self._executor.bound_address

    @property
    def control_address(self) -> str:
        """``host:port`` of the TCP control plane."""
        return self._control.address

    @property
    def executor(self) -> DistributedExecutor:
        """The wrapped executor (e.g. to ``wait_for_workers``)."""
        return self._executor

    @property
    def cache(self) -> Optional[ResultCache]:
        """The service's result cache (None when running uncached)."""
        return self._cache

    # ------------------------------------------------------------------
    # the job API (also reachable over TCP and HTTP)
    # ------------------------------------------------------------------
    def submit(self, name: str, cells: List[RunSpec]) -> str:
        """Enqueue a sweep job; returns its job id immediately.

        Jobs run strictly FIFO; a busy executor queues the job rather
        than rejecting it.  Emits the ``job_submit`` telemetry span.
        """
        if not all(isinstance(cell, RunSpec) for cell in cells):
            raise TypeError("every submitted cell must be a RunSpec")
        with self._state:
            if self._closed:
                raise RuntimeError("the service is shut down")
            self._next_id += 1
            job = JobRecord(f"job-{self._next_id}", name, list(cells))
            self._jobs[job.job_id] = job
            self._queue.append(job.job_id)
            self._state.notify_all()
        telemetry.emit("job_submit", job_id=job.job_id, name=name,
                       n_cells=len(cells))
        logger.info("queued %s (%s, %d cells)", job.job_id, name, len(cells))
        return job.job_id

    def submit_scenario(self, scenario: str, scale: str = "smoke",
                        replicates: int = 1) -> str:
        """Enqueue a named registry scenario (lowered to cells here)."""
        cells = scenario_cells(scenario, scale=scale, replicates=replicates)
        return self.submit(scenario, cells)

    def status(self, job_id: Optional[str] = None):
        """One job's status dict, or every job's (in submission order)."""
        with self._state:
            if job_id is None:
                position = {jid: i for i, jid in enumerate(self._queue)}
                return [job.status(position.get(jid))
                        for jid, job in sorted(
                            self._jobs.items(),
                            key=lambda kv: int(kv[0].split("-")[1]))]
            job = self._require_job(job_id)
            try:
                position = list(self._queue).index(job_id)
            except ValueError:
                position = None
            return job.status(position)

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Block until a job finishes; returns its final status dict."""
        stop = time.monotonic() + timeout
        with self._state:
            job = self._require_job(job_id)
            while job.state in (JOB_QUEUED, JOB_RUNNING):
                remaining = stop - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{job_id} still {job.state} after {timeout:.0f}s")
                self._state.wait(timeout=min(remaining, 0.5))
            return job.status()

    def results(self, job_id: str) -> dict:
        """The deterministic results document of a finished job."""
        with self._state:
            job = self._require_job(job_id)
            if job.state != JOB_DONE:
                raise RuntimeError(f"{job_id} is {job.state}, not done")
            return results_document(job.name, job.results)

    def result_cells(self, job_id: str):
        """The raw ordered :class:`CellResult` list of a finished job."""
        with self._state:
            job = self._require_job(job_id)
            if job.state != JOB_DONE:
                raise RuntimeError(f"{job_id} is {job.state}, not done")
            return list(job.results)

    def cache_stats(self) -> dict:
        """The cache's counters (an explicit marker when uncached)."""
        if self._cache is None:
            return {"enabled": False}
        stats = self._cache.stats()
        stats["enabled"] = True
        return stats

    def _require_job(self, job_id: str) -> JobRecord:
        # caller holds self._state
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (e.g. after a shutdown request)."""
        with self._state:
            return self._closed

    def close(self) -> None:
        """Stop the control plane, the runner thread and the executor.

        Joins the service's threads within a bounded wait, except the
        calling one: a shutdown request closes the service from a control
        thread.  A second caller returns once the first one has finished,
        so whoever closes a service last has its workers reaped.
        """
        with self._closing:
            with self._state:
                if self._closed:
                    return
                self._closed = True
                self._state.notify_all()
            for server in (self._control, self._executor):
                if server is not None:  # None only after a failed constructor
                    server.close()
            self._runner_thread.join(timeout=10.0)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        """The single runner thread: drain the FIFO queue, one job at a time."""
        while True:
            with self._state:
                while not self._queue and not self._closed:
                    self._state.wait()
                if self._closed:
                    return
                job = self._jobs[self._queue.popleft()]
                job.state = JOB_RUNNING
            try:
                results = timed_execute(self._executor, "dist", self._job_results(job))
            except Exception as exc:
                with self._state:
                    job.state = JOB_FAILED
                    job.error = str(exc)
                    self._state.notify_all()
                logger.warning("%s failed: %s", job.job_id, exc)
                continue
            with self._state:
                job.results = results
                job.state = JOB_DONE
                self._state.notify_all()
            logger.info("%s done: %d cells (%d cache hit(s))",
                        job.job_id, len(results), job.cache_hits)

    def _job_results(self, job: JobRecord) -> Iterator:
        """A job's results in cell order: hits from the cache, misses from
        the executor, each fresh result stored as the executor yields it.

        Each cell is fingerprinted once, and its lookup and store share
        the key.
        """
        cache = self._cache
        if cache is None:
            keys = cached = [None] * len(job.cells)
        else:
            keys = [cache.key(cell) for cell in job.cells]
            cached = [cache.lookup(cell, key) for cell, key in zip(job.cells, keys)]
        misses = [cell for cell, result in zip(job.cells, cached) if result is None]
        if cache is not None:
            with self._state:
                job.cache_hits = len(cached) - len(misses)
                job.cache_misses = len(misses)
        # the executor's stream stays suspended after its last result, its
        # sweep still installed, until it is advanced once more or closed
        with contextlib.closing(self._executor.map(execute_run_spec, misses)) as fresh:
            for cell, key, result in zip(job.cells, keys, cached):
                if result is None:
                    result = next(fresh)
                    if cache is not None:
                        cache.store(cell, result, key)
                yield result

    def _serve_control(self, sock: socket.socket) -> None:
        """Answer exactly one control request on its own connection."""
        shutdown = False
        try:
            sock.settimeout(30.0)
            message = protocol.recv_message(sock)
            try:
                reply, shutdown = self._handle_control(message)
            except (KeyError, ValueError, TypeError, RuntimeError) as exc:
                reply = (MSG_SVC_ERROR, str(exc))
            protocol.send_message(sock, reply)
        except (ConnectionClosed, ProtocolError, OSError):
            pass  # a vanished client is not the service's problem
        if shutdown:
            self.close()

    def _handle_control(self, message):
        """Dispatch one control-plane request tuple; returns (reply, shutdown)."""
        if not (isinstance(message, tuple) and message):
            raise ProtocolError(f"malformed control request: {message!r}")
        kind = message[0]
        if kind == MSG_SVC_SUBMIT:
            _, name, cells = message
            return (MSG_SVC_OK, self.submit(name, cells)), False
        if kind == MSG_SVC_STATUS:
            job_id = message[1] if len(message) > 1 else None
            return (MSG_SVC_OK, self.status(job_id)), False
        if kind == MSG_SVC_RESULTS:
            return (MSG_SVC_OK, self.results(message[1])), False
        if kind == MSG_SVC_CELLS:
            return (MSG_SVC_OK, self.result_cells(message[1])), False
        if kind == MSG_SVC_CACHE:
            return (MSG_SVC_OK, self.cache_stats()), False
        if kind == MSG_SVC_SHUTDOWN:
            # reply first, then close (at the end of _serve_control)
            return (MSG_SVC_OK, "shutting down"), True
        raise ProtocolError(f"unknown control request kind {kind!r}")
