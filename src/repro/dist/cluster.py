"""Localhost clusters: a coordinator plus N subprocess workers in one call.

A :class:`LocalCluster` is what ``workers=N`` means everywhere
(:func:`~repro.runner.executor.make_executor` starts one), and it is how
tests, CI and the scaling benchmark exercise the *full* network path —
real TCP sockets, real worker processes, real pickle frames — without any
deployment machinery:

>>> from repro.dist.cluster import launch_local_cluster
>>> from repro.runner import run_sweep
>>> with launch_local_cluster(workers=2) as cluster:
...     result = run_sweep("fig12_stationary", executor=cluster)

The cluster owns everything: :meth:`LocalCluster.start` binds an
ephemeral port on localhost, spawns ``python -m repro.dist.worker``
subprocesses pointed at it and waits until they have joined;
:meth:`LocalCluster.close` (or leaving the ``with`` block) shuts the
executor down and reaps the processes.  ``fail_after_cells={worker_index:
n}`` arms the worker-side fault injection (die abruptly when accepting
cell ``n+1``) used by the fault-tolerance tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.dist.coordinator import DistributedExecutor


def _worker_env() -> Dict[str, str]:
    """Subprocess environment in which ``import repro`` resolves to *this*
    checkout, whether or not the package is pip-installed."""
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    return env


def spawn_local_workers(address: str, count: int, *,
                        fail_after_cells: Optional[Dict[int, int]] = None,
                        name_prefix: str = "local",
                        connect_retry: float = 30.0) -> List[subprocess.Popen]:
    """Spawn ``count`` worker subprocesses connecting to ``address``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    processes = []
    for index in range(count):
        argv = [
            sys.executable, "-m", "repro.dist.worker",
            "--connect", address,
            "--name", f"{name_prefix}-{index}",
            "--retry", str(connect_retry),
            "--quiet",  # the coordinator logs joins and departures itself
        ]
        if fail_after_cells is not None and index in fail_after_cells:
            argv += ["--fail-after-cells", str(fail_after_cells[index])]
        processes.append(subprocess.Popen(argv, env=_worker_env()))
    return processes


class LocalCluster:
    """A bound :class:`DistributedExecutor` plus localhost worker processes.

    Implements the executor interface by delegation, so a cluster can be
    passed anywhere an executor is accepted (``run_sweep(executor=...)``).
    Use it as a context manager, or pair :meth:`start` with :meth:`close`;
    :attr:`executor` and :attr:`processes` stay accessible for assertions
    (e.g. that an injected crash really killed its worker).
    """

    def __init__(self, workers: int = 2, *,
                 heartbeat_timeout: float = 10.0,
                 worker_timeout: float = 120.0,
                 fail_after_cells: Optional[Dict[int, int]] = None,
                 wait_timeout: float = 60.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.worker_count = workers
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_timeout = worker_timeout
        self.fail_after_cells = fail_after_cells
        self.wait_timeout = wait_timeout
        self.executor: Optional[DistributedExecutor] = None
        self.processes: List[subprocess.Popen] = []

    # ------------------------------------------------------------------
    def start(self) -> "LocalCluster":
        """Bind the coordinator, spawn the workers, wait until all joined."""
        if self.executor is not None:
            return self
        self.executor = DistributedExecutor(
            "127.0.0.1:0",
            heartbeat_timeout=self.heartbeat_timeout,
            worker_timeout=self.worker_timeout,
        )
        try:
            self.processes = spawn_local_workers(
                self.executor.bound_address, self.worker_count,
                fail_after_cells=self.fail_after_cells,
            )
            self.executor.wait_for_workers(self.worker_count,
                                           timeout=self.wait_timeout)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Shut the coordinator down and reap the worker processes."""
        if self.executor is not None:
            self.executor.close()
        for process in self.processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                process.kill()
                process.wait()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # executor interface by delegation
    # ------------------------------------------------------------------
    def map(self, function, items):
        """Stream ordered results from the cluster (see the executor)."""
        return self._require_executor().map(function, items)

    def execute(self, function, items):
        """Run every item over the cluster and return the ordered results."""
        return self._require_executor().execute(function, items)

    @property
    def bound_address(self) -> str:
        """The coordinator's actual ``host:port``."""
        return self._require_executor().bound_address

    def _require_executor(self) -> DistributedExecutor:
        if self.executor is None:
            raise RuntimeError("the cluster is not running; start() it first")
        return self.executor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self.executor is None else self.bound_address
        return f"LocalCluster(workers={self.worker_count}, {state})"


def launch_local_cluster(workers: int = 2, **options) -> LocalCluster:
    """Coordinator + ``workers`` localhost subprocess workers (see module doc)."""
    return LocalCluster(workers=workers, **options)
