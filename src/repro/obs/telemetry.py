"""Structured run telemetry: wall-clock spans as canonical JSONL.

Where the in-sim observers (:mod:`repro.obs.catalog`) watch the *simulated*
trajectory, telemetry observes the *execution machinery*: how long each
cell took on the wall clock, which worker process ran it, how long cells
queued at the distributed coordinator, how workers join and leave, and
when in-flight work was requeued after a crash.  The sweep service adds
its own spans on the same stream: ``job_submit`` when a job enters the
queue, and ``cache_hit`` / ``cache_miss`` (with the content-addressed
``key`` and ``cell_id``) for every consultation of its result cache
(:mod:`repro.svc.cache`).  Spans are appended as one
canonical-JSON line each (sorted keys, compact separators) to a single
file, so a whole local cluster — coordinator, multiprocessing workers,
dist worker processes — interleaves safely into one stream:

* every ``emit`` performs exactly one ``os.write`` on a file descriptor
  opened with ``O_APPEND``, which POSIX guarantees to be atomic for
  the short lines written here;
* the sink is configured by the :data:`TELEMETRY_ENV` environment
  variable (a file path), which child processes inherit — fork-based
  multiprocessing workers and spawned dist workers alike — so one
  exported variable captures the whole run without any plumbing;
* every record carries the ``span`` name, the emitting ``worker``
  (``hostname-pid`` by default, overridable via :func:`set_worker_name`
  so dist workers report their CLI-given name) and a wall-clock ``ts``.

Telemetry costs one ``None`` check when off — the executors consult
:func:`active_sink` once per operation and skip all clock reads without a
sink — and is wall-clock only by design: it never touches the simulation,
so telemetered runs remain bit-identical to untelemetered ones.

Summarise a telemetry file with the ``repro-obs`` CLI
(:mod:`repro.obs.cli`).  The propagation contract shared with the
spec-borne observers is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import socket
import sys
import time
from typing import Dict, Iterator, Optional

#: environment variable naming the telemetry output file; inherited by
#: worker processes, which is how telemetry propagates across a cluster
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: explicitly installed sink (takes precedence over the environment)
_installed: Optional["TelemetrySink"] = None

#: sinks opened from the environment variable, cached per path so repeated
#: active_sink() calls reuse one file descriptor per process
_env_sinks: Dict[str, "TelemetrySink"] = {}

#: worker name override (dist workers set their CLI-given name here)
_worker_name: Optional[str] = None
#: pid the cached default worker name was computed for (fork invalidates it)
_worker_name_pid: Optional[int] = None
_default_worker_name: str = ""


class TelemetrySink(object):
    """Appends telemetry records to one JSONL file, atomically per line.

    The file descriptor is opened lazily (on the first :meth:`write`) with
    ``O_APPEND``, so many processes — a coordinator, its multiprocessing
    pool, networked workers — can share one file without interleaving
    partial lines.  Records are canonical JSON: sorted keys, compact
    separators, one line per record.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._fd: Optional[int] = None

    def write(self, record: dict) -> None:
        """Append one record as a single canonical-JSON line."""
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                               0o644)
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        """Close the underlying file descriptor (reopened on next write)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetrySink({self.path!r})"


def install_sink(sink: Optional[TelemetrySink]) -> None:
    """Install (or, with ``None``, remove) the process-wide telemetry sink.

    An installed sink takes precedence over the :data:`TELEMETRY_ENV`
    environment variable.
    """
    global _installed
    _installed = sink


def active_sink() -> Optional[TelemetrySink]:
    """The telemetry sink in effect, or ``None`` when telemetry is off.

    An explicitly installed sink wins; otherwise the environment variable
    is consulted on every call (cheap — one dict lookup when unset), so a
    sink appears automatically in any process that inherited the variable,
    including forked multiprocessing workers.
    """
    if _installed is not None:
        return _installed
    path = os.environ.get(TELEMETRY_ENV)
    if not path:
        return None
    sink = _env_sinks.get(path)
    if sink is None:
        sink = _env_sinks[path] = TelemetrySink(path)
    return sink


@contextlib.contextmanager
def telemetry_to(path: str) -> Iterator[TelemetrySink]:
    """Context manager: route this process's telemetry spans to ``path``.

    Also exports :data:`TELEMETRY_ENV` for the duration, so worker
    processes started inside the block inherit the sink.
    """
    sink = TelemetrySink(path)
    previous_env = os.environ.get(TELEMETRY_ENV)
    os.environ[TELEMETRY_ENV] = sink.path
    install_sink(sink)
    try:
        yield sink
    finally:
        install_sink(None)
        if previous_env is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = previous_env
        sink.close()


def worker_name() -> str:
    """This process's worker attribution (``hostname-pid`` by default).

    Recomputed after a fork (the pid changed); dist workers override it
    with their CLI-given name via :func:`set_worker_name` so spans line up
    with the names the coordinator logs.
    """
    global _default_worker_name, _worker_name_pid
    if _worker_name is not None:
        return _worker_name
    pid = os.getpid()
    if pid != _worker_name_pid:
        _worker_name_pid = pid
        _default_worker_name = f"{socket.gethostname()}-{pid}"
    return _default_worker_name


def set_worker_name(name: Optional[str]) -> None:
    """Override (or, with ``None``, restore) this process's worker name."""
    global _worker_name
    _worker_name = name


def emit(span: str, **fields: object) -> None:
    """Emit one telemetry span (a no-op without an active sink).

    The record is the given fields plus ``span`` (the span name),
    ``worker`` (see :func:`worker_name`) and ``ts`` (wall-clock epoch
    seconds).  Field values must be JSON-serialisable.
    """
    sink = active_sink()
    if sink is None:
        return
    record = dict(fields)
    record["span"] = span
    record["worker"] = worker_name()
    record["ts"] = time.time()
    sink.write(record)


def configure_cli_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Configure stdlib logging for a ``repro-*`` CLI process.

    Diagnostics go to **stderr** (result tables stay on stdout): WARNING
    and up with ``quiet``, DEBUG and up with ``verbose``, INFO otherwise.
    ``force=True`` so the last CLI to configure wins, which keeps tests
    that invoke several ``main()`` functions in one process predictable.
    """
    level = logging.INFO
    if quiet:
        level = logging.WARNING
    if verbose:
        level = logging.DEBUG
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
