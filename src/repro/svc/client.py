"""Client side of the sweep service's TCP control plane.

:class:`ServiceClient` speaks the one-request-per-connection protocol
(:mod:`repro.dist.protocol` ``MSG_SVC_*`` messages): submit a job, poll
its status, fetch results or cache counters, or shut the service down.
Every method opens a fresh connection, so a client object is trivially
thread-safe and never holds server-side state.

:class:`ServiceExecutor` adapts a running service to the runner's
executor interface (``execute(function, items)``), so any seam that
accepts an executor — :func:`~repro.runner.api.run_sweep`,
:func:`~repro.fuzz.executor.run_campaign` — can transparently route its
cells through the service and its content-addressed cache.  It only
accepts the canonical cell entry point
:func:`~repro.runner.cells.execute_run_spec`: the service always runs
exactly that function, so accepting anything else would silently compute
the wrong thing.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, Optional

from repro.dist import protocol
from repro.dist.protocol import (
    MSG_SVC_CACHE,
    MSG_SVC_CELLS,
    MSG_SVC_ERROR,
    MSG_SVC_OK,
    MSG_SVC_RESULTS,
    MSG_SVC_SHUTDOWN,
    MSG_SVC_STATUS,
    MSG_SVC_SUBMIT,
)
from repro.runner.cells import execute_run_spec
from repro.runner.specs import RunSpec


class ServiceError(RuntimeError):
    """The service answered a request with ``svc-error``."""


class ServiceClient:
    """Talk to a :class:`~repro.svc.service.SweepService` over TCP.

    ``address`` is the service's *control* address (not the worker one).
    """

    def __init__(self, address: str, *, timeout: float = 30.0):
        self.address = address
        self._timeout = float(timeout)

    def _request(self, message):
        with protocol.connect(self.address, timeout=self._timeout) as sock:
            protocol.send_message(sock, message)
            reply = protocol.recv_message(sock)
        if not (isinstance(reply, tuple) and len(reply) == 2):
            raise protocol.ProtocolError(f"malformed reply: {reply!r}")
        kind, payload = reply
        if kind == MSG_SVC_ERROR:
            raise ServiceError(payload)
        if kind != MSG_SVC_OK:
            raise protocol.ProtocolError(f"unexpected reply kind {kind!r}")
        return payload

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def submit(self, name: str, cells: List[RunSpec]) -> str:
        """Submit a batch of cells as one job; returns the job id."""
        return self._request((MSG_SVC_SUBMIT, name, list(cells)))

    def submit_scenario(self, scenario: str, scale: str = "smoke",
                        replicates: int = 1) -> str:
        """Submit a named registry scenario (lowered client-side)."""
        from repro.svc.service import scenario_cells

        return self.submit(scenario,
                           scenario_cells(scenario, scale=scale,
                                          replicates=replicates))

    def status(self, job_id: Optional[str] = None):
        """One job's status dict, or every job's when ``job_id`` is None."""
        return self._request((MSG_SVC_STATUS, job_id))

    def results(self, job_id: str) -> dict:
        """The deterministic results document of a finished job."""
        return self._request((MSG_SVC_RESULTS, job_id))

    def result_cells(self, job_id: str):
        """The raw ordered :class:`CellResult` list of a finished job."""
        return self._request((MSG_SVC_CELLS, job_id))

    def cache_stats(self) -> dict:
        """The service's cache counters."""
        return self._request((MSG_SVC_CACHE,))

    def shutdown(self) -> str:
        """Ask the service to shut down (acknowledged before it does)."""
        return self._request((MSG_SVC_SHUTDOWN,))

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_interval: float = 0.1) -> dict:
        """Poll until the job leaves the queue/running states.

        The first re-poll comes after 1 ms and each later wait doubles, up
        to ``poll_interval``: a job of cached cells is seen done within
        milliseconds, and a long one costs one status request per
        ``poll_interval``.
        """
        deadline = time.monotonic() + timeout
        delay = min(0.001, poll_interval)
        while True:
            status = self.status(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {status['state']} after {timeout:.0f}s")
            time.sleep(delay)
            delay = min(2 * delay, poll_interval)


class ServiceExecutor:
    """Executor-shaped adapter over a running sweep service.

    ``execute(execute_run_spec, cells)`` submits the cells as one job,
    waits for it, and returns the ordered results — from workers for
    fresh cells, from the content-addressed cache for repeats.  Cells
    previously simulated by *any* job (a sweep, another campaign) hit
    without re-simulation; the results are bit-identical either way.
    """

    def __init__(self, address: str, *, name: str = "service-job",
                 timeout: float = 600.0):
        self._client = ServiceClient(address)
        self._name = name
        self._timeout = float(timeout)

    def execute(self, function: Callable, items: Iterable) -> List:
        """Route one batch of cells through the service as one job."""
        if function is not execute_run_spec:
            raise ValueError(
                "a ServiceExecutor only runs execute_run_spec; "
                f"got {getattr(function, '__name__', function)!r}"
            )
        cells = list(items)
        if not cells:
            return []
        job_id = self._client.submit(self._name, cells)
        status = self._client.wait(job_id, timeout=self._timeout)
        if status["state"] != "done":
            raise RuntimeError(
                f"{job_id} {status['state']}: {status.get('error', 'unknown error')}"
            )
        return self._client.result_cells(job_id)

    def map(self, function: Callable, items: Iterable) -> Iterator:
        """Ordered result stream (materialised — the service batches)."""
        return iter(self.execute(function, items))
