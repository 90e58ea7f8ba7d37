"""Logical database: a set of data granules and access-set sampling.

The paper's logical model is deliberately simple: each transaction accesses
a constant number ``k`` of data items selected uniformly at random ("no hot
spots").  :class:`Database` draws exactly that: ``k`` distinct granules,
uniformly and without replacement, from its own ``data-access`` stream.
"""

from __future__ import annotations

import numpy as np

from repro.sim.random_streams import RandomStreams


class Database:
    """A database of ``size`` granules addressed ``0 .. size-1``."""

    def __init__(self, size: int, streams: RandomStreams):
        if size < 1:
            raise ValueError(f"database size must be >= 1, got {size}")
        self.size = int(size)
        self.streams = streams

    # ------------------------------------------------------------------
    def sample_access_set(self, count: int) -> np.ndarray:
        """Draw ``count`` distinct granule identifiers, uniformly at random."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > self.size:
            raise ValueError(
                f"cannot access {count} distinct granules in a database of size {self.size}"
            )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        rng = self.streams.stream("data-access")
        return rng.choice(self.size, size=count, replace=False).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Database size={self.size}>"
