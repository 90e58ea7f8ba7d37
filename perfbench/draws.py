"""Python frames around numpy draws, so the profiler can charge them to ``rng``.

numpy's ``Generator`` methods are compiled Cython functions, which cProfile
does not record: without help, a draw's time lands in its caller's self
time.  Traced runs hand out generators wrapped in :class:`DrawFrames`,
whose forwarding methods give every draw a frame of its own in this file,
and the layer map charges this file to ``rng``.  A wrapped generator makes
the same draws, so traced results stay identical to untraced ones.
"""

from __future__ import annotations

#: the file whose frames are the numpy draws
DRAW_FILE = __file__


class DrawFrames:
    """Forwards the draws ``repro`` makes to a numpy ``Generator``."""

    __slots__ = ("_generator",)

    def __init__(self, generator):
        self._generator = generator

    def exponential(self, *args, **kwargs):
        return self._generator.exponential(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._generator.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._generator.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._generator.uniform(*args, **kwargs)

    def choice(self, *args, **kwargs):
        return self._generator.choice(*args, **kwargs)

    def shuffle(self, *args, **kwargs):
        return self._generator.shuffle(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def frame_draws(streams_class):
    """Make ``streams_class.stream`` hand out framed generators; returns the undo."""
    original = streams_class.stream
    framed = {}

    def stream(self, name):
        generator = original(self, name)
        wrapper = framed.get(generator)
        if wrapper is None:
            wrapper = framed[generator] = DrawFrames(generator)
        return wrapper

    def undo() -> None:
        streams_class.stream = original
        framed.clear()

    streams_class.stream = stream
    return undo
