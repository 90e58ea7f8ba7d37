"""Local worker processes: ``python -m repro.dist.worker`` subprocesses.

:func:`spawn_local_workers` starts ``N`` worker subprocesses pointed at a
coordinator address.  :class:`~repro.dist.coordinator.DistributedExecutor`
calls it for ``local_workers=N`` (and so for every ``workers=N`` sweep),
waits until they have joined and reaps them on ``close``; tests and
benchmarks that need a worker with a fault armed, or a worker for a
service they wire up by hand, call it directly and reap what they
spawned.  ``fail_after_cells={worker_index: n}`` arms the worker-side
fault injection (die abruptly when accepting cell ``n+1``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import repro


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
                        fail_after_cells: Optional[Dict[int, int]] = None
                        ) -> List[subprocess.Popen]:
    """Spawn ``count`` worker subprocesses connecting to ``address``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    processes = []
    for index in range(count):
        argv = [
            sys.executable, "-m", "repro.dist.worker",
            "--connect", address,
            "--name", f"local-{index}",
            "--retry", "30",
            "--quiet",  # the coordinator logs joins and departures itself
        ]
        if fail_after_cells is not None and index in fail_after_cells:
            argv += ["--fail-after-cells", str(fail_after_cells[index])]
        processes.append(subprocess.Popen(argv, env=_worker_env()))
    return processes
