"""A stand-in for the model's ``cpu-demand`` reader, for kernel tests."""


class ScriptedDraws:
    """Standard variates read in turn from a fixed cycle; a variate put back is read next.

    It has the two methods a station reads a demand stream through
    (:class:`repro.tp.workload.ExponentialDraws` has them too).  Every read
    and every give-back is passed to ``record`` as ``("drawn", x)`` or
    ``("returned", x)``.
    """

    def __init__(self, cycle=(1.0,), record=None):
        self.cycle = tuple(cycle)
        self.taken = 0
        self.returned = []
        self.record = record if record is not None else (lambda _entry: None)

    def standard(self):
        """The variate put back last, else the next one of the cycle."""
        if self.returned:
            value = self.returned.pop()
        else:
            value = self.cycle[self.taken % len(self.cycle)]
            self.taken += 1
        self.record(("drawn", value))
        return value

    def put_back(self, value):
        """Read ``value`` again next."""
        self.returned.append(value)
        self.record(("returned", value))
