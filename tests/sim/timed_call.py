"""Run a plain function at an absolute simulation time, for kernel tests."""


def call_at(sim, time, fn):
    """Run ``fn()`` at ``time``, scheduling exactly one event when called.

    The one event keeps tie-break tests exact: a helper built on a process
    would add a start-up wake-up and change the order under test.
    """
    sim.timeout(time - sim.now).add_callback(lambda _event: fn())
