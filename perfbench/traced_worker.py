"""A dist worker whose cell executions run under the profiler.

Every traced run starts this in place of ``python -m repro.dist.worker``::

    python3 perfbench/traced_worker.py --connect HOST:PORT --profile worker.prof

Only cell execution is profiled; the worker's waits on its socket would
otherwise fill the profile.  The profile is written when the coordinator
shuts the worker down.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import Path


def main(argv=None) -> int:
    """Join the coordinator, execute cells under the profiler, write the profile."""
    parser = argparse.ArgumentParser(description="Run a profiled repro dist worker.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--profile", required=True, type=Path,
                        help="file the cProfile statistics are written to")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.dist.worker import Worker
    from repro.runner import cells
    from repro.sim.random_streams import RandomStreams

    from draws import frame_draws

    frame_draws(RandomStreams)
    profiler = cProfile.Profile()
    execute = cells.execute_run_spec

    def profiled_execute(spec):
        profiler.enable()
        try:
            return execute(spec)
        finally:
            profiler.disable()

    # the coordinator pickles the cell function by reference, so the task
    # this worker unpickles resolves to the profiled wrapper
    cells.execute_run_spec = profiled_execute
    try:
        Worker(args.connect, name="traced-0", connect_retry=30.0).run()
    finally:
        profiler.dump_stats(str(args.profile))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
