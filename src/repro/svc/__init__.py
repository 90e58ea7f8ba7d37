"""Persistent sweep service with a content-addressed result cache.

The runner executes cells; the distributed layer fans them out over
networked workers; this package keeps a process *around* between sweeps
and makes repeated work free:

* :mod:`repro.svc.cache` — :class:`~repro.svc.cache.ResultCache`, an
  on-disk content-addressed store of cell results keyed by
  :func:`~repro.runner.specs.run_spec_fingerprint` (a blake2b-256 digest
  of the resolved spec's canonical JSON), each handle holding its recent
  entries in memory as well.  Because every cell is
  bit-deterministic, a cache hit is *provably* byte-identical to a fresh
  simulation — the soundness guarantee ``tests/svc/`` pins end to end;
* :mod:`repro.svc.service` — :class:`~repro.svc.service.SweepService`, a
  FIFO job queue over one
  :class:`~repro.dist.coordinator.DistributedExecutor`, accepting
  :class:`~repro.runner.specs.SweepSpec` submissions over the existing
  length-prefixed TCP protocol; it looks every cell up in the cache and
  sends only the misses to the executor;
* :mod:`repro.svc.http` — a stdlib HTTP/JSON control plane (submit /
  status / results / cache stats / health) over the same service;
* :mod:`repro.svc.client` — :class:`~repro.svc.client.ServiceClient`
  plus :class:`~repro.svc.client.ServiceExecutor`, which lets any
  executor-shaped caller (``run_sweep(executor=...)``, fuzz campaigns)
  route cells through a running service transparently;
* :mod:`repro.svc.cli` — the ``repro-svc`` console entry point
  (``serve`` / ``submit`` / ``status`` / ``results`` / ``cache`` /
  ``shutdown``).
"""

from repro.svc.cache import CACHE_FORMAT, ResultCache
from repro.svc.service import JobRecord, SweepService

__all__ = [
    "CACHE_FORMAT",
    "JobRecord",
    "ResultCache",
    "SweepService",
]
