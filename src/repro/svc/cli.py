"""``repro-svc``: the sweep service's console entry point.

``repro-svc serve`` starts a persistent service process: a worker port
(``repro-dist-worker --connect`` targets), a TCP control port for the
client subcommands, an optional HTTP/JSON port, and a content-addressed
result cache directory shared across restarts.  The remaining subcommands
are one-shot clients of a running service::

    repro-svc serve --cache /tmp/sweep-cache --local-workers 2
    repro-svc submit fig12_stationary --address HOST:PORT --wait
    repro-svc status --address HOST:PORT
    repro-svc results job-1 --address HOST:PORT
    repro-svc cache --address HOST:PORT
    repro-svc shutdown --address HOST:PORT

``serve`` prints its three bound addresses on stdout (one
``<name> address: host:port`` line each) before serving, so scripts — and
the CI smoke job — can scrape ephemeral ports.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
import time

from repro.experiments.config import SCALE_PRESETS
from repro.obs import telemetry
from repro.svc.cache import ResultCache
from repro.svc.client import ServiceClient
from repro.svc.service import SweepService

logger = logging.getLogger("repro.svc.cli")


class _CrashAfterFills(ResultCache):
    """Test-only cache that hard-kills the process after N fills.

    The deterministic fault injection behind the crash-recovery test
    (mirroring ``repro-dist-worker --fail-after-cells``): the service
    stores fresh results in cell order, so exactly the first N results
    land in the cache before the service dies mid-job without any
    shutdown courtesies.  Exit code 17 distinguishes the injected crash
    from a real failure.
    """

    def __init__(self, directory, limit: int):
        super().__init__(directory)
        self._fills_left = int(limit)

    def store(self, spec, result, key=None):
        key = super().store(spec, result, key)
        if key is not None:
            self._fills_left -= 1
            if self._fills_left <= 0:
                logging.shutdown()
                os._exit(17)
        return key


def _serve(args) -> int:
    """Run a service until a shutdown request (or Ctrl-C) arrives."""
    cache = None
    if args.cache is not None:
        if args.exit_after_fills is not None:
            cache = _CrashAfterFills(args.cache, args.exit_after_fills)
        else:
            cache = ResultCache(args.cache)
    elif args.exit_after_fills is not None:
        raise SystemExit("--exit-after-fills requires --cache")
    service = SweepService(
        worker_bind=args.bind,
        control_bind=args.control,
        cache=cache,
        local_workers=args.local_workers,
        heartbeat_timeout=args.heartbeat_timeout,
        worker_timeout=args.worker_wait,
    )
    http_server = http_thread = None
    try:
        print(f"worker address: {service.worker_address}", flush=True)
        print(f"control address: {service.control_address}", flush=True)
        if args.http is not None:
            from repro.svc.http import make_http_server

            http_server = make_http_server(service, args.http)
            http_thread = threading.Thread(target=http_server.serve_forever,
                                           name="svc-http", daemon=True)
            http_thread.start()
            host, port = http_server.server_address[:2]
            print(f"http address: {host}:{port}", flush=True)
        if args.min_workers:
            service.executor.wait_for_workers(args.min_workers,
                                              timeout=args.worker_wait)
        logger.info("service ready: %d worker(s), cache=%s",
                    service.executor.workers,
                    cache.directory if cache is not None else "off")
        while not service.closed:
            time.sleep(0.2)
        logger.info("service shut down")
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        logger.info("interrupted")
    finally:
        # shutdown() waits for serve_forever, so only a started thread
        if http_thread is not None:
            http_server.shutdown()
            http_thread.join()
        if http_server is not None:
            http_server.server_close()
        service.close()
    return 0


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _submit(args) -> int:
    client = ServiceClient(args.address)
    job_id = client.submit_scenario(args.scenario, scale=args.scale,
                                    replicates=args.replicates)
    print(job_id)
    if args.wait:
        status = client.wait(job_id, timeout=args.timeout)
        _print_json(status)
        return 0 if status["state"] == "done" else 1
    return 0


def _status(args) -> int:
    _print_json(ServiceClient(args.address).status(args.job_id))
    return 0


def _results(args) -> int:
    _print_json(ServiceClient(args.address).results(args.job_id))
    return 0


def _cache(args) -> int:
    _print_json(ServiceClient(args.address).cache_stats())
    return 0


def _shutdown(args) -> int:
    print(ServiceClient(args.address).shutdown())
    return 0


def _add_address(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--address", required=True, metavar="HOST:PORT",
                        help="the service's control address")


def main(argv=None) -> int:
    """Entry point of the ``repro-svc`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-svc",
        description="Persistent sweep service with a content-addressed "
                    "result cache.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true",
                        help="log debug diagnostics")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run a service process until shut down")
    serve.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="worker port (default: 127.0.0.1:0, ephemeral)")
    serve.add_argument("--control", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="TCP control port (default: 127.0.0.1:0)")
    serve.add_argument("--http", default=None, metavar="HOST:PORT",
                       help="also serve the HTTP/JSON control plane here")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache directory "
                            "(persistent across restarts; default: uncached)")
    serve.add_argument("--local-workers", type=int, default=0, metavar="N",
                       help="also spawn N worker subprocesses on this host")
    serve.add_argument("--min-workers", type=int, default=0, metavar="N",
                       help="wait for N workers before reporting ready")
    serve.add_argument("--worker-wait", type=float, default=600.0,
                       metavar="SECONDS",
                       help="zero-worker stall budget per sweep (default: 600)")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="declare a silent worker dead after this long "
                            "(default: 30)")
    serve.add_argument("--exit-after-fills", type=int, default=None,
                       metavar="N", help=argparse.SUPPRESS)  # test-only crash
    serve.set_defaults(run=_serve)

    submit = commands.add_parser(
        "submit", help="submit a registry scenario as a job")
    _add_address(submit)
    submit.add_argument("scenario", help="registry scenario name")
    submit.add_argument("--scale", default="smoke", choices=SCALE_PRESETS,
                        help="experiment scale preset (default: smoke)")
    submit.add_argument("--replicates", type=int, default=1,
                        help="independent replicates per cell (default: 1)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; exit 1 on failure")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="--wait budget (default: 600)")
    submit.set_defaults(run=_submit)

    status = commands.add_parser("status", help="job status (one or all)")
    _add_address(status)
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id (omit for every job)")
    status.set_defaults(run=_status)

    results = commands.add_parser(
        "results", help="results document of a finished job")
    _add_address(results)
    results.add_argument("job_id", help="job id")
    results.set_defaults(run=_results)

    cache = commands.add_parser("cache", help="cache hit/miss counters")
    _add_address(cache)
    cache.set_defaults(run=_cache)

    shutdown = commands.add_parser("shutdown", help="stop the service")
    _add_address(shutdown)
    shutdown.set_defaults(run=_shutdown)

    args = parser.parse_args(argv)
    telemetry.configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI CLI smoke
    raise SystemExit(main(sys.argv[1:]))
