"""Named random-number streams.

Simulation studies need *independent* streams for the different stochastic
components (think times, service demands, data-item selection, transaction
class selection, ...).  Using one global generator couples them: changing
how many samples one component draws perturbs every other component, which
destroys the common-random-numbers structure needed for fair comparisons
between, say, the IS and the PA controller on "the same" workload.

:class:`RandomStreams` derives one :class:`numpy.random.Generator` per named
stream from a root seed using ``numpy``'s ``SeedSequence.spawn`` machinery,
so streams are reproducible, independent, and stable under the addition of
new streams (each stream is keyed by its name, not by creation order).

For replicated experiments, :meth:`RandomStreams.spawn` derives a child
:class:`RandomStreams` per replicate index: every named stream of the child
is independent of the parent's (and of every other replicate's) stream of
the same name, while remaining a deterministic function of
``(root seed, replicate index, stream name)`` only — adding streams or
replicates never perturbs the others.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

#: spawn-key tag separating replicate branches from the name-key namespace
#: (a name key is always 4 words, a branch prefix is tag/index pairs)
_REPLICATE_TAG = 0x7265706C  # "repl"


def _name_key(name: str) -> Tuple[int, int, int, int]:
    """Hash a stream name into four 32-bit spawn-key words.

    ``SeedSequence`` spawn keys are sequences of 32-bit integers; a 128-bit
    digest keeps the probability of two stream names colliding negligible
    (the previous ``crc32`` keying could collide after ~2**16 names).
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12))


class RandomStreams:
    """Factory and registry of named, independently seeded RNG streams."""

    def __init__(self, seed: int = 0, _branch: Tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed)
        self._branch = tuple(int(word) for word in _branch)
        self._generators: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed is a deterministic function of the root seed, the
        replicate branch (see :meth:`spawn`) and the stream name only, so
        the same name always yields the same stream regardless of how many
        other streams exist or in what order they were requested.
        """
        generator = self._generators.get(name)
        if generator is None:
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=self._branch + _name_key(name)
            )
            generator = np.random.default_rng(sequence)
            self._generators[name] = generator
        return generator

    def spawn(self, replicate: int) -> "RandomStreams":
        """Derive the stream family of one replicate of this experiment.

        Each replicate's streams are independent of every other replicate's
        and of this instance's own streams, but fully determined by the root
        seed and the replicate index — the common-random-numbers structure
        (same seed, same replicate, same stream name => same variates) is
        preserved across processes and stream-creation order.
        """
        if not isinstance(replicate, (int, np.integer)):
            raise TypeError(
                f"replicate must be an integer, got {type(replicate).__name__}"
            )
        if replicate < 0:
            raise ValueError(f"replicate must be non-negative, got {replicate}")
        return RandomStreams(
            self.seed, _branch=self._branch + (_REPLICATE_TAG, int(replicate))
        )
