"""Content-addressed, on-disk cache of cell results.

The key is :func:`~repro.runner.specs.run_spec_fingerprint` — a
blake2b-256 hex digest of the resolved :class:`~repro.runner.specs.RunSpec`
canonical JSON (:mod:`repro.canonical`), salted with
:data:`~repro.runner.specs.SPEC_FINGERPRINT_VERSION` and embedding the
spec encoder's own ``format`` tag, so any change to either encoding
invalidates cleanly by producing different keys.  The value is the
pickled :class:`~repro.runner.cells.CellResult` the runner produced.

Soundness rests entirely on the repository's determinism contract: a
cell's result is a pure function of its spec (every run seeds its own
:class:`~repro.sim.random_streams.RandomStreams`), so equal fingerprints
imply byte-identical results — serving from the cache is not an
approximation, it is the same answer.  ``tests/svc/test_cache_soundness.py``
pins this end to end against the golden trajectory fixtures.

Layout and durability:

* entries live at ``<directory>/v<CACHE_FORMAT>/<fingerprint>.pkl`` — the
  format-versioned subdirectory means a breaking change to the entry
  encoding can never misread old files, it simply starts a fresh tree;
* writes are atomic (unique temp file + ``os.replace``), so a cache
  directory shared by concurrent fills, or a service killed mid-write,
  can never yield a torn entry;
* unreadable or truncated entries are treated as misses (and re-filled
  on the next store), never as errors — the cache is an accelerator, not
  a dependency.

The executor-facing seam (:meth:`ResultCache.lookup` /
:meth:`ResultCache.store`) only engages for the canonical cell entry
point :func:`~repro.runner.cells.execute_run_spec` mapped over
:class:`~repro.runner.specs.RunSpec` items; any other function or item
type bypasses the cache entirely, so a cache-backed executor stays a
correct general-purpose executor.  Specs the JSON encoder refuses
(ad-hoc callables, interval tuners) are uncacheable and always simulate.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from pathlib import Path
from typing import Optional

from repro.obs import telemetry
from repro.runner.cells import execute_run_spec
from repro.runner.specs import RunSpec, run_spec_fingerprint

logger = logging.getLogger("repro.svc.cache")

#: bump when the *entry* encoding (the pickled value layout) changes; the
#: key encoding is versioned separately by SPEC_FINGERPRINT_VERSION and
#: RUN_SPEC_FORMAT, which are hashed into every fingerprint.  2: CellResult
#: gained ``trace`` and StationaryPoint's ``anomalies``/``probe_metrics``
#: became ``observed``
CACHE_FORMAT = 2


class ResultCache:
    """On-disk content-addressed store of :class:`CellResult` values.

    ``get``/``put`` are the spec-keyed primitives; ``lookup``/``store``
    are the guarded seam :class:`~repro.dist.coordinator.DistributedExecutor`
    calls with its generic ``(function, item)`` pairs.  All methods are
    thread-safe (the coordinator fills from per-worker serving threads)
    and a single directory may be shared by any number of processes —
    atomic writes make concurrent fills of the same key converge on one
    valid entry.
    """

    def __init__(self, directory):
        self._root = Path(directory)
        self._dir = self._root / f"v{CACHE_FORMAT}"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._uncacheable = 0

    # ------------------------------------------------------------------
    # spec-keyed primitives
    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> Optional[str]:
        """The cache key of ``spec``, or None if it cannot be encoded."""
        try:
            return run_spec_fingerprint(spec)
        except ValueError:
            return None

    def path_for(self, key: str) -> Path:
        """The on-disk entry path of a fingerprint."""
        return self._dir / f"{key}.pkl"

    def get(self, spec: RunSpec):
        """The cached result of ``spec``, or None on a miss.

        Counts a hit or a miss and emits the matching telemetry span
        (``cache_hit`` / ``cache_miss``).  Uncacheable specs count
        separately and emit nothing — they are invisible to the hit-rate.
        """
        key = self.key_for(spec)
        if key is None:
            with self._lock:
                self._uncacheable += 1
            return None
        result = self._read(key)
        if result is not None:
            with self._lock:
                self._hits += 1
            telemetry.emit("cache_hit", key=key, cell_id=spec.cell_id)
            return result
        with self._lock:
            self._misses += 1
        telemetry.emit("cache_miss", key=key, cell_id=spec.cell_id)
        return None

    def put(self, spec: RunSpec, result) -> Optional[str]:
        """Store ``result`` under ``spec``'s key; returns the key used.

        Atomic: a concurrent reader sees either no entry or a complete
        one.  Uncacheable specs are silently skipped (returns None).
        """
        key = self.key_for(spec)
        if key is None:
            return None
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:  # pragma: no cover - disk-full etc.
            logger.warning("cache store of %s failed: %s", key, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
        with self._lock:
            self._stores += 1
        return key

    def _read(self, key: str):
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # torn/corrupt entries degrade to misses; the next fill heals
            logger.warning("cache entry %s unreadable (%s); treating as miss",
                           key, exc)
            return None

    # ------------------------------------------------------------------
    # the executor seam
    # ------------------------------------------------------------------
    def lookup(self, function, item):
        """Coordinator-side read: None unless this is a cacheable cell hit."""
        if function is not execute_run_spec or not isinstance(item, RunSpec):
            return None
        return self.get(item)

    def store(self, function, item, result) -> None:
        """Coordinator-side fill after a worker returns a fresh result."""
        if function is not execute_run_spec or not isinstance(item, RunSpec):
            return
        self.put(item, result)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The cache root (the versioned subdirectory lives under it)."""
        return self._root

    def entries(self) -> int:
        """Number of complete entries currently on disk."""
        return sum(1 for _ in self._dir.glob("*.pkl"))

    def stats(self) -> dict:
        """Counters since this handle was opened, plus the on-disk size."""
        with self._lock:
            return {
                "format": CACHE_FORMAT,
                "directory": str(self._root),
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "uncacheable": self._uncacheable,
                "entries": self.entries(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self._root)!r}, entries={self.entries()})"
