"""Logical database: a set of data granules and access-set sampling.

The paper's logical model is deliberately simple: each transaction accesses
a constant number ``k`` of data items selected uniformly at random ("no hot
spots").  :class:`Database` draws exactly that: ``k`` distinct granules,
uniformly and without replacement, from its own ``data-access`` stream.

A sample is the one ``Generator.choice(size, k, replace=False)`` returns on
that stream, draw for draw, computed here by numpy's own algorithm instead
of by one ``choice`` call per transaction, which spends most of its time on
numpy's per-call set-up:

* Floyd's sample (Bentley & Floyd, CACM 30(9), 1987), then a Fisher-Yates
  shuffle of the ``k`` values;
* when ``size > 10000`` and ``k > size // 50``, a Fisher-Yates shuffle of
  the last ``k`` positions of ``0 .. size-1`` instead, whose tail is the
  sample (kept here as a map of the moved positions, not a list of all).

Each draw below a bound is Lemire's multiply-and-reject on one 32-bit word
(arXiv:1805.10941), as numpy makes it for bounds under ``2**32``; a larger
database is refused.  The words are the raw output of the stream's PCG64
bit generator, low half of each 64-bit value first, the order in which its
``next_uint32`` hands them to ``choice``.  They are read ``WORD_BLOCK`` at a
time with ``random_raw``, whose stream NEP 19 keeps stable, so a numpy
release that changed ``choice`` would not move this sample.
``tests/tp/test_database.py`` pins the equality with ``choice``.  Only the
database may read the ``data-access`` stream: a second reader would take
whole blocks instead of alternating words.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.random_streams import RandomStreams

#: 32-bit words read from the ``data-access`` bit generator per refill
WORD_BLOCK = 256


class Database:
    """A database of ``size`` granules addressed ``0 .. size-1``."""

    def __init__(self, size: int, streams: RandomStreams):
        if not 1 <= size < 2**32:
            raise ValueError(f"database size must be in [1, 2**32), got {size}")
        self.size = int(size)
        self.streams = streams
        #: the unread words of the stream, next word last
        self._words: List[int] = []

    # ------------------------------------------------------------------
    def sample_access_set(self, count: int) -> Tuple[int, ...]:
        """Draw ``count`` distinct granule identifiers, uniformly at random.

        The identifiers, in order, that ``Generator.choice(size, count,
        replace=False)`` would return on the ``data-access`` stream.
        """
        size = self.size
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > size:
            raise ValueError(
                f"cannot access {count} distinct granules in a database of size {size}"
            )
        if count == 0:
            return ()
        # a sample makes fewer than 2 * count draws, and a rejected word
        # (rare: below bound / 2**32) tops the buffer up again
        reserve = 2 * count
        words = self._words
        if len(words) < reserve:
            self._reserve(reserve)
        pop = words.pop
        # a bound of 1 (the position 0) draws nothing
        low = size - count
        first = max(low, 1)
        if size > 10000 and count > size // 50:
            # the tail shuffle: swap each position from size-1 down to
            # first with one below or at it
            moved = {}
            for bound in range(size, first, -1):
                m = pop() * bound
                if m & 0xFFFFFFFF < bound:
                    m = self._redraw(m, bound, reserve)
                high = bound - 1
                other = m >> 32
                moved[high], moved[other] = moved.get(other, other), moved.get(high, high)
            return tuple([moved.get(position, position) for position in range(low, size)])
        # Floyd's sample: for each high in low..size-1, a draw in 0..high,
        # or high itself if that draw was taken already
        items = [0] if low == 0 else []
        chosen = set(items)
        for bound in range(first + 1, size + 1):
            m = pop() * bound
            if m & 0xFFFFFFFF < bound:
                m = self._redraw(m, bound, reserve)
            value = m >> 32
            if value in chosen:
                value = bound - 1
            chosen.add(value)
            items.append(value)
        # the shuffle: swap each position from count-1 down to 1 with one
        # below or at it
        for bound in range(count, 1, -1):
            m = pop() * bound
            if m & 0xFFFFFFFF < bound:
                m = self._redraw(m, bound, reserve)
            high = bound - 1
            other = m >> 32
            items[high], items[other] = items[other], items[high]
        return tuple(items)

    # ------------------------------------------------------------------
    def _reserve(self, count: int) -> None:
        """Buffer at least ``count`` words, reading whole blocks beneath the unread ones."""
        words = self._words
        blocks = -(-(count - len(words)) // WORD_BLOCK)
        if blocks <= 0:
            return
        generator = self.streams.stream("data-access").bit_generator
        block = generator.random_raw(blocks * WORD_BLOCK // 2)
        block = block.astype("<u8", copy=False).view("<u4").tolist()
        block.reverse()
        words[:0] = block

    def _redraw(self, product: int, bound: int, reserve: int) -> int:
        """Finish Lemire's draw below ``bound`` whose first ``product`` may be biased.

        The product is rejected while its low word is below ``2**32 %
        bound``; each retry takes the next word.  The buffer is then topped
        up to ``reserve`` words, so the sample's remaining draws find theirs.
        """
        threshold = 0x100000000 % bound
        words = self._words
        while product & 0xFFFFFFFF < threshold:
            if not words:
                self._reserve(1)
            product = words.pop() * bound
        self._reserve(reserve)
        return product

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Database size={self.size}>"
