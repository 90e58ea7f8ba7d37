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
file, so a whole local cluster — the coordinator and its dist worker
processes — interleaves safely into one stream:

* every ``emit`` performs exactly one ``os.write`` on a file descriptor
  opened with ``O_APPEND``, which POSIX guarantees to be atomic for
  the short lines written here;
* the sink is configured by the :data:`TELEMETRY_ENV` environment
  variable (a file path), which child processes inherit — the dist
  workers a ``workers=N`` sweep spawns included — so one exported
  variable captures the whole run without any plumbing;
* every record carries the ``span`` name, the emitting ``worker``
  (``hostname-pid`` by default, overridable per thread via
  :func:`set_worker_name` so dist workers report their CLI-given name) and
  a wall-clock ``ts``.

Telemetry costs one ``None`` check when off — the executors consult
:func:`active_sink` once per operation and skip all clock reads without a
sink — and is wall-clock only by design: it never touches the simulation,
so telemetered runs remain bit-identical to untelemetered ones.  A closed
sink stays closed: a span that a coordinator thread emits after
:func:`telemetry_to` has exited is dropped, never reopening the file.

Summarise a telemetry file with the ``repro-obs`` CLI
(:mod:`repro.obs.cli`).  The propagation contract shared with the
spec-borne observers is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import socket
import sys
import threading
import time
from typing import Dict, Iterator, Optional

from repro.canonical import canonical_json

#: environment variable naming the telemetry output file; inherited by
#: worker processes, which is how telemetry propagates across a cluster
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: sinks of the paths the environment variable has named, cached per path
#: so repeated active_sink() calls reuse one file descriptor per process
_env_sinks: Dict[str, "TelemetrySink"] = {}

#: per-thread worker name override (a dist worker's loop sets its
#: CLI-given name here, so an in-process worker renames only its own spans)
_worker_name = threading.local()
#: pid the cached default worker name was computed for (fork invalidates it)
_worker_name_pid: Optional[int] = None
_default_worker_name: str = ""


class TelemetrySink(object):
    """Appends telemetry records to one JSONL file, atomically per line.

    The file descriptor is opened lazily (on the first :meth:`write`) with
    ``O_APPEND``, so many processes — a coordinator and its dist workers,
    local or networked — can share one file without interleaving partial
    lines.  Records are canonical JSON (:func:`repro.canonical.canonical_json`:
    sorted keys, compact separators, non-finite floats tagged), one line
    per record.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._fd: Optional[int] = None
        self._closed = False
        #: orders writes from many threads against close()
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        """Append one record as a single canonical-JSON line (dropped once closed)."""
        line = canonical_json(record) + "\n"
        with self._lock:
            if self._closed:
                return
            if self._fd is None:
                self._fd = os.open(self.path,
                                   os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                                   0o644)
            os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        """Close the underlying file descriptor; later writes are dropped."""
        with self._lock:
            self._closed = True
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetrySink({self.path!r})"


def active_sink() -> Optional[TelemetrySink]:
    """The telemetry sink in effect, or ``None`` when telemetry is off.

    The environment variable is consulted on every call (cheap — one dict
    lookup when unset), so a sink appears automatically in any process
    that inherited the variable, including spawned dist workers.
    """
    path = os.environ.get(TELEMETRY_ENV)
    if not path:
        return None
    sink = _env_sinks.get(path)
    if sink is None:
        sink = _env_sinks[path] = TelemetrySink(path)
    return sink


@contextlib.contextmanager
def telemetry_to(path: str) -> Iterator[TelemetrySink]:
    """Context manager: route telemetry spans to ``path`` for the block.

    Exports :data:`TELEMETRY_ENV` for the duration, so worker processes
    started inside the block inherit it, and makes a fresh sink the cached
    one for ``path``, which every thread of this process then finds.  On
    exit the variable and the cache entry are restored and the sink closed.
    """
    sink = TelemetrySink(path)
    previous_env = os.environ.get(TELEMETRY_ENV)
    previous_sink = _env_sinks.get(sink.path)
    os.environ[TELEMETRY_ENV] = sink.path
    _env_sinks[sink.path] = sink
    try:
        yield sink
    finally:
        if previous_env is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = previous_env
        if previous_sink is None:
            _env_sinks.pop(sink.path, None)
        else:
            _env_sinks[sink.path] = previous_sink
        sink.close()


def worker_name() -> str:
    """The calling thread's worker attribution (``hostname-pid`` by default).

    Recomputed after a fork (the pid changed); dist workers override it
    with their CLI-given name via :func:`set_worker_name` so spans line up
    with the names the coordinator logs.
    """
    global _default_worker_name, _worker_name_pid
    override = getattr(_worker_name, "name", None)
    if override is not None:
        return override
    pid = os.getpid()
    if pid != _worker_name_pid:
        _worker_name_pid = pid
        _default_worker_name = f"{socket.gethostname()}-{pid}"
    return _default_worker_name


def set_worker_name(name: Optional[str]) -> None:
    """Override (or, with ``None``, restore) the calling thread's worker name."""
    _worker_name.name = name


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


class _StderrHandler(logging.StreamHandler):
    """A stream handler writing to whatever ``sys.stderr`` is at emit time."""

    def __init__(self):
        # skips StreamHandler.__init__, which would pin today's stream
        logging.Handler.__init__(self)

    @property
    def stream(self):
        """The current ``sys.stderr``."""
        return sys.stderr


def configure_cli_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Configure stdlib logging for a ``repro-*`` CLI process.

    Diagnostics go to **stderr** (result tables stay on stdout): WARNING
    and up with ``quiet``, DEBUG and up with ``verbose``, INFO otherwise.
    ``force=True`` so the last CLI to configure wins, which keeps tests
    that invoke several ``main()`` functions in one process predictable.
    The stream is looked up per record, so a log line never goes to a
    ``sys.stderr`` that has since been replaced and closed (as a test's
    captured stderr is).
    """
    level = logging.INFO
    if quiet:
        level = logging.WARNING
    if verbose:
        level = logging.DEBUG
    logging.basicConfig(
        level=level,
        handlers=[_StderrHandler()],
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
