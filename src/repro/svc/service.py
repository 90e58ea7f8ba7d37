"""The persistent sweep service: a FIFO job queue over one cached executor.

A :class:`SweepService` owns a cache-backed
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

Per-job cache accounting is exact: jobs run one at a time, so the delta of
the cache's hit/miss counters across a job is that job's hit/miss count —
the quantity ``tests/svc/test_cache_soundness.py`` pins (a warm
re-submission of any golden scenario is 100% hits and zero simulations).

Results documents are deliberately deterministic (no job ids, no
timestamps): :meth:`SweepService.results` of a warm job is byte-identical
to the cold run's, which is the headline guarantee of the cache.
"""

from __future__ import annotations

import collections
import logging
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.canonical import sanitize
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
from repro.runner.cells import execute_run_spec
from repro.runner.specs import RunSpec
from repro.svc.cache import ResultCache

logger = logging.getLogger("repro.svc.service")

#: results-document format tag (bump on structural changes)
RESULTS_FORMAT = 1

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
        #: exact per-job cache accounting (delta across the run)
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


def results_document(name: str, results) -> dict:
    """The deterministic results document of a finished job.

    A pure function of the cell results (no job id, no timestamps, no
    cache counters), so a warm re-submission — served entirely from the
    cache — produces a byte-identical canonical serialisation to the cold
    run that filled it.  Trajectory payloads stay out of the document
    (they are rich Python objects); metrics carry the full pinned values.
    """
    cells = []
    for result in results:
        cell = {
            "cell_id": result.cell_id,
            "kind": result.kind,
            "replicate": result.replicate,
            "label": result.label,
            "metrics": dict(result.metrics),
        }
        if result.model_reference:
            cell["model_reference"] = result.model_reference
        cells.append(cell)
    return sanitize({
        "format": RESULTS_FORMAT,
        "name": name,
        "n_cells": len(cells),
        "cells": cells,
    })


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
    """A persistent, cache-backed sweep executor with a FIFO job queue.

    ``worker_bind`` is where ``repro-dist-worker`` processes connect;
    ``control_bind`` is where :class:`~repro.svc.client.ServiceClient`
    (and the ``repro-svc`` CLI) talk to the service.  Both accept port 0
    for an ephemeral port — read the bound addresses back from
    :attr:`worker_address` / :attr:`control_address`.  ``cache`` may be a
    ready :class:`~repro.svc.cache.ResultCache`, a directory path, or
    None to run uncached (every cell always simulates).
    """

    def __init__(self, *, worker_bind: str = "127.0.0.1:0",
                 control_bind: str = "127.0.0.1:0",
                 cache=None,
                 heartbeat_timeout: float = 30.0,
                 worker_timeout: float = 600.0):
        if cache is None or isinstance(cache, ResultCache):
            self._cache = cache
        else:
            self._cache = ResultCache(cache)
        self._executor = DistributedExecutor(
            worker_bind,
            heartbeat_timeout=heartbeat_timeout,
            worker_timeout=worker_timeout,
            cell_cache=self._cache,
        )
        #: guards _jobs, _queue, _next_id, _closed; runner waits on it
        self._state = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: collections.deque = collections.deque()
        self._next_id = 0
        self._closed = False
        #: threads answering control requests, which close() joins
        self._control_threads: set = set()
        host, port = protocol.parse_address(control_bind)
        self._control_listener = socket.create_server((host, port))
        self._runner_thread = threading.Thread(
            target=self._run_loop, name="svc-runner", daemon=True)
        self._runner_thread.start()
        self._control_thread = threading.Thread(
            target=self._control_accept_loop, name="svc-control", daemon=True)
        self._control_thread.start()

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
        host, port = self._control_listener.getsockname()[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return protocol.format_address(host, port)

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
        thread.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
            control = list(self._control_threads)
            self._state.notify_all()
        protocol.close_listener(self._control_listener)
        self._executor.close()
        protocol.join_threads([self._runner_thread, self._control_thread, *control],
                              timeout=10.0)

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
            before = self._cache.stats() if self._cache is not None else None
            try:
                results = self._executor.execute(execute_run_spec, job.cells)
            except Exception as exc:
                with self._state:
                    job.state = JOB_FAILED
                    job.error = str(exc)
                    self._state.notify_all()
                logger.warning("%s failed: %s", job.job_id, exc)
                continue
            after = self._cache.stats() if self._cache is not None else None
            with self._state:
                job.results = results
                if before is not None:
                    job.cache_hits = after["hits"] - before["hits"]
                    job.cache_misses = after["misses"] - before["misses"]
                job.state = JOB_DONE
                self._state.notify_all()
            logger.info("%s done: %d cells (%d cache hit(s))",
                        job.job_id, len(results), job.cache_hits)

    def _control_accept_loop(self) -> None:
        while True:
            try:
                sock, address = protocol.accept(self._control_listener)
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_control, args=(sock,),
                name=f"svc-ctl-{address[0]}:{address[1]}", daemon=True,
            )
            with self._state:
                if self._closed:
                    sock.close()
                    return
                self._control_threads.add(thread)
                thread.start()

    def _serve_control(self, sock: socket.socket) -> None:
        """Answer exactly one control request, then close the connection."""
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
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            with self._state:
                self._control_threads.discard(threading.current_thread())
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
            # reply first, then close (the finally block in _serve_control)
            return (MSG_SVC_OK, "shutting down"), True
        raise ProtocolError(f"unknown control request kind {kind!r}")
