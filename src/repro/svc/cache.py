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

The cache has one reader and one writer, the sweep service
(:class:`~repro.svc.service.SweepService`): it looks up every cell of a
job before dispatch and stores each fresh result as its ordered result
stream yields it.  Every :class:`~repro.runner.specs.RunSpec` is plain
data and so has a key; a spec the JSON encoder refuses (a non-scalar
option value, an unknown schedule or arrival subclass) fails the lookup
with the encoder's ``ValueError`` rather than run uncached.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from pathlib import Path
from typing import Optional

from repro.obs import telemetry
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

    :meth:`lookup` and :meth:`store` are keyed by the cell's spec.  All
    methods are thread-safe and a single directory may be shared by any
    number of handles and processes — atomic writes make concurrent fills
    of the same key converge on one valid entry.
    """

    def __init__(self, directory):
        self._root = Path(directory)
        self._dir = self._root / f"v{CACHE_FORMAT}"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0

    def path_for(self, key: str) -> Path:
        """The on-disk entry path of a fingerprint."""
        return self._dir / f"{key}.pkl"

    def lookup(self, spec: RunSpec):
        """The cached result of ``spec``, or None on a miss.

        Counts a hit or a miss and emits the matching telemetry span
        (``cache_hit`` / ``cache_miss``).
        """
        key = run_spec_fingerprint(spec)
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

    def store(self, spec: RunSpec, result) -> Optional[str]:
        """Store ``result`` under ``spec``'s key; returns the key used.

        Atomic: a concurrent reader sees either no entry or a complete
        one.  A failed write is logged and returns None.
        """
        key = run_spec_fingerprint(spec)
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:  # disk full, say
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
                "entries": self.entries(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self._root)!r}, entries={self.entries()})"
