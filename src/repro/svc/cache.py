"""Content-addressed cache of cell results: on disk, and recent entries in memory.

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

Two levels, one answer:

* **disk** — entries live at ``<directory>/v<CACHE_FORMAT>/<fingerprint>.pkl``
  (the format-versioned subdirectory means a breaking change to the entry
  encoding can never misread old files, it simply starts a fresh tree);
  every handle and process sharing the directory sees them;
* **memory** — each handle also keeps the encoded bytes of every entry it
  has written or read in full, up to :data:`MEMORY_BYTES` in all, evicting
  the least recently used first (an entry larger than the budget is not
  held).  A lookup that finds its key there opens no file.

Either way a hit unpickles the bytes, so it returns a fresh object that no
other caller holds, and both levels hold the same bytes for a key: an
entry is content-addressed and a cell's result is deterministic.  A handle
therefore keeps serving an entry it holds after the file is deleted or
damaged; a fresh handle reads the disk.

Durability:

* writes are atomic (unique temp file + ``os.replace``), so a cache
  directory shared by concurrent fills, or a service killed mid-write,
  can never yield a torn entry;
* unreadable or truncated entries are treated as misses (and re-filled
  on the next store), never as errors — the cache is an accelerator, not
  a dependency.

The cache has one reader and one writer, the sweep service
(:class:`~repro.svc.service.SweepService`): it fingerprints every cell of
a job once (:meth:`ResultCache.key`), looks each one up before dispatch
and stores each fresh result under the same key as its ordered result
stream yields it.  Every :class:`~repro.runner.specs.RunSpec` is plain
data and so has a key; a spec the JSON encoder refuses (a non-scalar
option value, an unknown schedule or arrival subclass) fails the lookup
with the encoder's ``ValueError`` rather than run uncached.
"""

from __future__ import annotations

import collections
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

#: bytes of encoded entries one handle keeps in memory (32 MiB: ~45,000
#: smoke-scale cells of ~750 bytes, or ~650 with a lifecycle trace)
MEMORY_BYTES = 32 << 20


class ResultCache:
    """On-disk content-addressed store of :class:`CellResult` values.

    :meth:`lookup` and :meth:`store` are keyed by the cell's spec; a caller
    that has the key already (:meth:`key`) passes it, so the spec is not
    fingerprinted again.  All methods are thread-safe and a single
    directory may be shared by any number of handles and processes —
    atomic writes make concurrent fills of the same key converge on one
    valid entry.
    """

    def __init__(self, directory):
        self._root = Path(directory)
        self._dir = self._root / f"v{CACHE_FORMAT}"
        self._dir.mkdir(parents=True, exist_ok=True)
        #: guards the counters and the memory level
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        #: key -> encoded entry, least recently used first
        self._memory: "collections.OrderedDict[str, bytes]" = collections.OrderedDict()
        self._memory_bytes = 0

    @staticmethod
    def key(spec: RunSpec) -> str:
        """The cache key of ``spec``, its :func:`run_spec_fingerprint`."""
        return run_spec_fingerprint(spec)

    def path_for(self, key: str) -> Path:
        """The on-disk entry path of a fingerprint."""
        return self._dir / f"{key}.pkl"

    def lookup(self, spec: RunSpec, key: Optional[str] = None):
        """The cached result of ``spec`` (a fresh object), or None on a miss.

        ``key`` is ``spec``'s key if the caller has it.  Counts a hit or a
        miss and emits the matching telemetry span (``cache_hit`` /
        ``cache_miss``).
        """
        if key is None:
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

    def store(self, spec: RunSpec, result, key: Optional[str] = None) -> Optional[str]:
        """Store ``result`` under ``spec``'s key (``key``, if given); returns the key used.

        Atomic: a concurrent reader sees either no entry or a complete
        one.  A failed write is logged, holds nothing in memory and
        returns None.
        """
        if key is None:
            key = run_spec_fingerprint(spec)
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
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
            self._hold(key, data)
        return key

    def _read(self, key: str):
        with self._lock:
            data = self._memory.get(key)
            if data is not None:
                self._memory.move_to_end(key)
        if data is not None:
            return pickle.loads(data)
        try:
            with open(self.path_for(key), "rb") as handle:
                data = handle.read()
            result = pickle.loads(data)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # torn/corrupt entries degrade to misses; the next fill heals
            logger.warning("cache entry %s unreadable (%s); treating as miss",
                           key, exc)
            return None
        with self._lock:
            self._hold(key, data)
        return result

    def _hold(self, key: str, data: bytes) -> None:
        """Keep ``data`` in memory as the most recently used entry (lock held)."""
        if len(data) > MEMORY_BYTES:
            return
        previous = self._memory.pop(key, None)
        if previous is not None:
            self._memory_bytes -= len(previous)
        self._memory[key] = data
        self._memory_bytes += len(data)
        while self._memory_bytes > MEMORY_BYTES:
            _key, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= len(evicted)

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
        """Counters since this handle was opened, the on-disk entries and the memory level."""
        with self._lock:
            return {
                "format": CACHE_FORMAT,
                "directory": str(self._root),
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "entries": self.entries(),
                "memory_entries": len(self._memory),
                "memory_bytes": self._memory_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self._root)!r}, entries={self.entries()})"
