"""The ``repro-fuzz`` console entry point: a budgeted counterexample hunt.

Usage::

    repro-fuzz --seed 1 --budget 15 --scale smoke --workers 2 \
               --archive tests/fuzz_corpus

Runs one deterministic campaign (see
:func:`~repro.fuzz.executor.run_campaign`), prints one verdict line per
candidate plus a summary, optionally archives every counterexample found,
and exits 0.  With ``--expect-counterexample`` the exit code is 1 when the
campaign found nothing — the CI smoke job uses this to assert the fuzzer
still finds its pinned failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.config import SCALE_PRESETS, scale_preset
from repro.fuzz.adversaries import adversary_kinds
from repro.fuzz.corpus import archive_counterexamples
from repro.fuzz.executor import run_campaign
from repro.fuzz.oracle import FailureThresholds
from repro.obs.telemetry import configure_cli_logging

logger = logging.getLogger("repro.fuzz")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="hunt adaptive-load-control failures with adversarial workloads",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed; same seed + budget = same candidates")
    parser.add_argument("--budget", type=int, default=10,
                        help="number of distinct candidates to run (default: 10)")
    parser.add_argument("--scale", default="smoke", choices=SCALE_PRESETS,
                        help="experiment scale preset (default: smoke)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0/1 = in-process serial)")
    parser.add_argument("--service", default=None, metavar="HOST:PORT",
                        help="route cells through a running repro-svc control "
                             "address (repeat candidates hit its result cache)")
    parser.add_argument("--kinds", nargs="+", default=None, metavar="KIND",
                        choices=adversary_kinds(),
                        help=f"restrict adversary kinds (default: all of {', '.join(adversary_kinds())})")
    parser.add_argument("--archive", type=Path, default=None, metavar="DIR",
                        help="write every counterexample found to DIR as replayable JSON")
    parser.add_argument("--rescue-fraction", type=float, default=0.35,
                        help="fail a run below this fraction of the analytic peak (default: 0.35)")
    parser.add_argument("--livelock-ratio", type=float, default=3.0,
                        help="fail when displaced > ratio * commits (default: 3)")
    parser.add_argument("--min-commit-rate", type=float, default=0.5,
                        help="fail below this commit rate per simulated second (default: 0.5)")
    parser.add_argument("--expect-counterexample", action="store_true",
                        help="exit 1 if the campaign finds no counterexample")
    parser.add_argument("--quiet", action="store_true",
                        help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true",
                        help="log debug diagnostics")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one fuzz campaign from the command line."""
    args = _build_parser().parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    thresholds = FailureThresholds(
        rescue_fraction=args.rescue_fraction,
        livelock_ratio=args.livelock_ratio,
        min_commit_rate=args.min_commit_rate,
    )
    # progress diagnostics go through logging; the verdict lines, summary
    # and archive paths below are the CLI's contract and stay on stdout
    logger.info("seed=%d budget=%d scale=%s workers=%d service=%s",
                args.seed, args.budget, args.scale, args.workers, args.service)
    executor = None
    if args.service is not None:
        from repro.svc.client import ServiceExecutor

        # repeat candidates hit the service's cache
        executor = ServiceExecutor(args.service,
                                   name=f"fuzz-seed{args.seed}-budget{args.budget}")
    report = run_campaign(
        seed=args.seed,
        budget=args.budget,
        scale=scale_preset(args.scale),
        workers=args.workers,
        thresholds=thresholds,
        kinds=args.kinds,
        executor=executor,
    )
    for verdict in report.verdicts:
        status = f"FAIL({','.join(verdict.reasons)})" if verdict.failed else "ok"
        print(f"  {verdict.cell_id:<40} tput={verdict.throughput:8.2f} "
              f"peak-fraction={verdict.throughput_fraction:6.3f} "
              f"[{verdict.reference}] {status}")
    print(f"{report.found} counterexample(s) in {len(report.verdicts)} candidates")
    if args.archive is not None and report.counterexamples:
        paths = archive_counterexamples(report.counterexamples, args.archive)
        for path in paths:
            print(f"archived {path}")
    if args.expect_counterexample and report.found == 0:
        print("expected at least one counterexample, found none", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI convenience
    sys.exit(main())
