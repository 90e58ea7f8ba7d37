"""The benchmark's workloads, each run in a fresh process by ``run.py``.

::

    python3 perfbench/workloads.py --workload closed_occ --seed 1 --seconds 20 \\
        --mode timed --work DIR --ready-fd FD

Set-up (imports, spec build and, for ``service_sweep``, service start and
worker join) ends with one byte written to ``--ready-fd``, so the parent
times set-up from process start.  ``--mode setup`` stops there, ``timed``
measures the end-to-end metrics with tracing off and ``traced`` attributes
the time to layers; both write their result to ``DIR/result.json``.
``--mode pin`` rewrites ``pinned.json`` from serial in-process runs at
every workload's default seed.

Every workload is a closed loop: the next cell or job starts only when the
previous one has returned.

Timings are reported from the fastest of a run's repeats of the same
deterministic work, scaled to a reference host speed (``HostSpeed``):
other tenants of a shared host slow every process on it, for bursts of a
second and for stretches of minutes, and neither is the code's own cost.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
PACKAGE_DIR = HERE.parent / "src" / "repro"
# measure this checkout's package, never an installed copy
sys.path.insert(0, str(PACKAGE_DIR.parent))

import draws  # noqa: E402
import layers  # noqa: E402
from meters import Meters  # noqa: E402

PINNED = HERE / "pinned.json"
GOLDEN_DIR = HERE.parent / "tests" / "golden"

#: a timed in-process run repeats its sweep at least this often, so that
#: every cell has at least two warm samples after the process's first sweep
MIN_SWEEPS = 3
#: warm resubmissions after every cold service pass; fixed, because the
#: service keeps every finished job and so their number sets its memory
WARM_PASSES = 60
#: iterations of the host-speed reference loop
REFERENCE_LOOPS = 50_000
#: the reference loop's fastest time on an idle 2-vCPU Intel Xeon host
#: (Python 3.11): a run's times are scaled to this speed
REFERENCE_S = 0.00318
#: reference loops a set-up process runs after set-up, to scale its time
SETUP_REFERENCE_LOOPS = 60


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registry scenario at a fixed scale.

    The sweep runs the offered loads of the ``loads`` ``ExperimentScale``
    preset for ``horizon`` simulated seconds after ``warmup``.
    """

    name: str
    scenario: str
    loads: str
    horizon: float
    warmup: float
    default_seed: int
    replicates: int = 1
    service: bool = False

    def scale(self):
        """The workload's ``ExperimentScale``."""
        from dataclasses import replace

        from repro.experiments.config import ExperimentScale

        return replace(getattr(ExperimentScale, self.loads)(),
                       stationary_horizon=self.horizon, warmup=self.warmup)


WORKLOADS = {workload.name: workload for workload in (
    # all seven benchmark loads at the smoke horizon: cells of ~25-220 ms,
    # so a 20 s run times every cell about nine times
    Workload("closed_occ", "fig12_stationary", "benchmark", 8.0, 2.0, default_seed=1),
    # 12 s rather than 8: the backlog of the overloaded cells, and with it
    # the lock table's share, grows with the horizon; cells of ~15-600 ms
    Workload("open_2pl", "open_diurnal", "benchmark", 12.0, 2.0, default_seed=67),
    # the smoke scale: 27 cells of ~30-300 ms per cold pass
    Workload("service_sweep", "fig12_stationary", "smoke", 8.0, 2.0, default_seed=1,
             replicates=3, service=True),
)}

#: layers whose code runs inside a cell; dist and svc run only around
#: cells, so the meters and spans report their cost per cell instead
CELL_LAYERS = tuple(layer for layer in layers.LAYERS if layer not in ("dist", "svc"))

#: per-commit call counts read from a profile: metric -> (layer, function,
#: or None for every call into the layer)
COUNTS_PER_COMMIT = {
    "sim.engine.timeouts_per_commit": ("sim.engine", "timeout"),
    "sim.engine.processes_per_commit": ("sim.engine", "process"),
    "sim.resources.requests_per_commit": ("sim.resources", "request"),
    "rng.calls_per_commit": ("rng", None),
    "cc.access_per_commit": ("cc", "access"),
    # execution attempts per commit, 1 + the restart ratio: the wasted work
    "cc.executions_per_commit": ("cc", "begin"),
}


def build_spec(workload: Workload, seed: int, scale=None):
    """The workload's sweep, its base parameters rebuilt from ``seed``."""
    from repro.experiments.config import default_system_params
    from repro.runner.registry import build_sweep

    spec = build_sweep(workload.scenario, scale=scale or workload.scale(),
                       base_params=default_system_params(seed=seed))
    return spec.with_replicates(workload.replicates)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def render(name: str, results) -> dict:
    """The deterministic results document of one pass."""
    from repro.svc.service import results_document

    return results_document(name, results)


def cell_digests(document: dict) -> Dict[str, str]:
    """The digest of every cell of a results document, keyed ``cell_id#replicate``."""
    from repro.canonical import canonical_digest

    return {f"{cell['cell_id']}#{cell['replicate']}": canonical_digest(cell)
            for cell in document["cells"]}


def mismatched(document: dict, reference: Optional[Dict[str, str]],
               partial: bool = False) -> set:
    """Keys of the cells whose digests differ from ``reference``.

    A cell missing on either side differs too, unless ``partial`` says the
    reference covers only some of the document's cells.
    """
    if reference is None:
        return set()
    digests = cell_digests(document)
    keys = set(reference) if partial else digests.keys() | reference.keys()
    return {key for key in keys if digests.get(key) != reference.get(key)}


def pinned_reference(workload: Workload, seed: int) -> Optional[dict]:
    """The pinned document and cell digests, which hold at the default seed only."""
    if seed != workload.default_seed:
        return None
    return json.loads(PINNED.read_text())[workload.name]


def golden_digests(scenario: str) -> Dict[str, str]:
    """Cell digests of a committed golden fixture, as results-document cells."""
    from repro.canonical import canonical_digest

    golden = json.loads((GOLDEN_DIR / f"{scenario}.json").read_text())
    return {f"{cell['cell_id']}#{cell['replicate']}": canonical_digest(
                {key: cell[key] for key in ("cell_id", "kind", "replicate", "label", "metrics")})
            for cell in golden["cells"]}


def check_golden(workload: Workload, tally: "Tally") -> None:
    """Simulate the scenario's golden sweep serially and compare it with the fixture.

    The committed fixture is the scenario at smoke scale with its own base
    parameters, so every run checks the simulator against a fixed
    reference, whatever its ``--seed``.
    """
    from repro.experiments.config import ExperimentScale
    from repro.runner.api import run_sweep
    from repro.runner.registry import build_sweep

    reference = golden_digests(workload.scenario)
    spec = build_sweep(workload.scenario, scale=ExperimentScale.smoke())
    try:
        document = render(spec.name, run_sweep(spec, workers=0).results)
    except Exception as exc:  # a raising cell counts as failed
        tally.cells(len(reference), len(reference))
        tally.require(False, f"the golden sweep raised: {exc!r}")
        return
    wrong = mismatched(document, reference)
    tally.cells(len(reference), len(wrong))
    tally.require(not wrong, f"{workload.scenario} differs from its golden fixture")


class Tally:
    """Attempted and failed cells of one run, and why it is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def cells(self, attempted: int, failed: int) -> None:
        """Book one pass over ``attempted`` cells, ``failed`` of them wrong."""
        self.attempted += attempted
        self.failed += failed

    def require(self, condition: bool, problem: str) -> None:
        """Record ``problem`` unless ``condition`` holds."""
        if not condition and problem not in self.problems:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        """True when no cell failed and every check held."""
        return self.failed == 0 and not self.problems


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class HostSpeed:
    """The host's speed, sampled with a fixed pure-Python loop between timings.

    The loop is the benchmark's own code, so no change to ``repro`` moves
    it; its fastest time in a run says how fast the host ran then.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the reference loop once."""
        started = time.perf_counter()
        total = 0
        for index in range(REFERENCE_LOOPS):
            total += index * index % 7
        self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        """Multiply a time of this run by this to get it at the reference speed."""
        return REFERENCE_S / min(self.samples)


# ----------------------------------------------------------------------
# traced-run attribution
# ----------------------------------------------------------------------
def profile_metrics(stats) -> dict:
    """Per-commit layer self time and call counts of a cell-execution profile.

    Commits are the calls of ``RunMetrics.record_commit``: every commit of
    the profiled cells, warm-up included.
    """
    layer_map = layers.LayerMap(PACKAGE_DIR, {draws.DRAW_FILE: "rng"})
    commits = layers.entry_calls(stats, layer_map, "metrics", "record_commit")
    per_commit = 1.0 / commits if commits else 0.0
    seconds = layers.self_seconds(stats, layer_map)
    metrics = {f"{layer}.self_us_per_commit": 1e6 * seconds[layer] * per_commit
               for layer in CELL_LAYERS}
    for name, (layer, function) in COUNTS_PER_COMMIT.items():
        metrics[name] = layers.entry_calls(stats, layer_map, layer, function) * per_commit
    return metrics


def install_meters(meters: Meters) -> None:
    """Wrap the wire, the fingerprint, the cache seam and the client calls."""
    from repro.dist import protocol
    from repro.svc import cache
    from repro.svc.client import ServiceClient

    meters.count_frames(protocol)
    meters.time_calls(cache, "run_spec_fingerprint", "fingerprint")
    meters.time_calls(cache.ResultCache, "lookup", "lookup")
    meters.time_calls(cache.ResultCache, "store", "store")
    meters.time_calls(ServiceClient, "submit", "submit")
    meters.time_calls(ServiceClient, "results", "results")


def meter_metrics(meters: Meters, cells: int, unit: "Unit", cache_dir: Path) -> dict:
    """Wire, fingerprint, cache and control-plane metrics of one metered unit.

    Frames, bytes and stores are per cell of the cold pass; fingerprints
    and lookups per cell of every pass; control time per job.
    """
    served = cells * (1 + len(unit.warm))
    jobs = len(unit.cold) + len(unit.warm)
    entries = list(cache_dir.glob("v*/*.pkl"))
    return {
        "dist.frames_per_cell": meters.frames / cells,
        "dist.wire_bytes_per_cell": meters.wire_bytes / cells,
        "runner.fingerprint_calls_per_cell": meters.calls["fingerprint"] / served,
        "runner.fingerprint_us_per_cell": 1e6 * meters.seconds["fingerprint"] / served,
        "svc.lookup_us_per_cell": 1e6 * meters.seconds["lookup"] / served,
        "svc.entry_bytes": (statistics.fmean(path.stat().st_size for path in entries)
                            if entries else 0.0),
        "svc.store_us_per_cell": 1e6 * meters.seconds["store"] / cells,
        "svc.control_ms_per_job": 1e3 * (meters.seconds["submit"]
                                         + meters.seconds["results"]) / jobs,
    }


def span_metrics(records: List[dict], cells, tally: Tally) -> dict:
    """Worker execution, coordinator idle gap and round trip from telemetry spans.

    One worker runs the cells one at a time, so the k-th execution span
    belongs to the k-th result span.
    """
    executed = [record["duration"] for record in records if record["span"] == "cell_execute"]
    returned = [record["duration"] for record in records if record["span"] == "cell_result"]
    count = len(cells)
    tally.require(len(executed) == count and len(returned) == count,
                  f"{len(executed)} cell executions for {count} cells: a warm pass simulated")
    # the gap from a cell's result to the dispatch of the next cell of the
    # same job is time the coordinator and the worker both wait
    idle, last_result = [], None
    for record in records:
        if record["span"] == "cell_result":
            last_result = record["ts"]
        elif record["span"] == "dispatch":
            if record["index"] > 0 and last_result is not None:
                idle.append(record["ts"] - last_result)
            last_result = None
    return {
        "worker.execute_ms_per_cell": 1e3 * statistics.fmean(executed),
        "dist.idle_ms_per_cell": 1e3 * statistics.fmean(idle) if idle else 0.0,
        "dist.roundtrip_ms_per_cell": 1e3 * statistics.fmean(
            result - execution for result, execution in zip(returned, executed)),
    }


# ----------------------------------------------------------------------
# in-process workloads: closed_occ, open_2pl
# ----------------------------------------------------------------------
class CellFailures(Exception):
    """Cells of a sweep raised; every other cell of the sweep still ran."""


class CellTimer:
    """Serial in-process executor that times every cell.

    ``run_sweep(spec, executor=CellTimer(host))`` is ``run_sweep(spec,
    workers=0)`` with a clock read around each cell, and the host's speed
    sampled after it.
    """

    workers = 0

    def __init__(self, host: HostSpeed):
        self.host = host
        self.seconds: List[float] = []
        self.errors: List[str] = []

    def execute(self, function, items) -> list:
        """Apply ``function`` to every item in order; raise after the sweep if any failed."""
        results = []
        for item in items:
            started = time.perf_counter()
            try:
                results.append(function(item))
            except Exception as exc:  # a raising cell counts as failed
                self.errors.append(f"{item.cell_id}: {exc!r}")
            finally:
                self.seconds.append(time.perf_counter() - started)
            self.host.sample()
        if self.errors:
            raise CellFailures("; ".join(self.errors))
        return results


def run_in_process(spec, seconds, pins, tally):
    """Serial sweeps of ``spec`` until ``seconds`` have passed."""
    from repro.canonical import canonical_digest
    from repro.runner.api import run_sweep

    count = len(spec.cells)
    reference = pins["cells"] if pins else None
    commits = 0.0
    sweeps: List[List[float]] = []
    host = HostSpeed()
    started = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - started < seconds:
        timer = CellTimer(host)
        try:
            result = run_sweep(spec, executor=timer)
        except CellFailures as failures:
            tally.cells(count, len(timer.errors))
            tally.require(False, f"cells raised: {failures}")
            sweeps.append(timer.seconds)
            continue
        sweeps.append(timer.seconds)
        document = render(spec.name, result.results)
        tally.cells(count, len(mismatched(document, reference)))
        if pins:
            tally.require(canonical_digest(document) == pins["document"],
                          "the results document differs from the pinned one")
        if reference is None:
            # later sweeps of the same spec must repeat the first one exactly
            reference = cell_digests(document)
        commits = sum(cell["metrics"]["commits"] for cell in document["cells"])

    # a sweep's time at the reference speed: every cell at its fastest
    every = host.factor * sum(min(run[index] for run in sweeps) for index in range(count))
    warm = host.factor * sum(min(run[index] for run in sweeps[1:]) for index in range(count))
    metrics = {
        "commits_per_s": commits / every,
        # there is no cache in-process: every sweep simulates every cell, so
        # every sweep is a cold pass, and the warm passes are the repeats
        # after the process's first sweep
        "cold_cells_per_s": count / every,
        "warm_cells_per_s": count / warm,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"cell_seconds": sweeps, "commits_per_sweep": commits,
                     "host_factor": host.factor}


# ----------------------------------------------------------------------
# the service path: service_sweep, and every workload's traced run
# ----------------------------------------------------------------------
class Job(NamedTuple):
    """One submitted job: its wall time from submit to results in hand."""

    cells: int
    seconds: float
    status: dict
    document: Optional[dict]


class Unit(NamedTuple):
    """One cold pass over the cells and its warm resubmissions.

    The cold pass is a job per replicate, so that a burst of load from
    other tenants slows one short job rather than the whole pass.
    """

    cold: List[Job]
    warm: List[Job]

    @property
    def seconds(self) -> float:
        """Wall time of every job of the unit."""
        return sum(job.seconds for job in self.cold + self.warm)


@contextlib.contextmanager
def running_service(cache_dir: Path, worker_profile: Optional[Path] = None):
    """A sweep service on a fresh cache with one joined worker subprocess."""
    from repro.dist.cluster import spawn_local_workers
    from repro.svc.client import ServiceClient
    from repro.svc.service import SweepService

    service = SweepService(cache=cache_dir)
    workers = []
    try:
        if worker_profile is None:
            workers = spawn_local_workers(service.worker_address, 1)
        else:
            workers = [subprocess.Popen([
                sys.executable, str(HERE / "traced_worker.py"),
                "--connect", service.worker_address, "--profile", str(worker_profile)])]
        service.executor.wait_for_workers(1, timeout=60.0)
        yield service, ServiceClient(service.control_address)
    finally:
        service.close()
        for worker in workers:
            try:
                worker.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()


def service_unit(service, client, name: str, cells, host: HostSpeed) -> Unit:
    """A cold job per replicate, then ``WARM_PASSES`` warm resubmissions of every cell."""

    def job(cells) -> Job:
        started = time.perf_counter()
        job_id = client.submit(name, cells)
        # the service's own wait wakes when the job ends; ServiceClient.wait
        # would add up to its 0.1 s poll interval to every job
        status = service.wait(job_id, timeout=150.0)
        document = client.results(job_id) if status["state"] == "done" else None
        seconds = time.perf_counter() - started
        host.sample()
        return Job(len(cells), seconds, status, document)

    replicates = sorted({cell.replicate for cell in cells})
    cold = [job([cell for cell in cells if cell.replicate == replicate])
            for replicate in replicates]
    return Unit(cold, [job(cells) for _ in range(WARM_PASSES)])


def service_references(workload: Workload, cells, pins) -> list:
    """``(cell digests, partial)`` references the first cold pass must match.

    At the default seed: the pins and, for a smoke-scale workload, the
    scenario's golden fixture.  At any other seed: replicate 0 of every
    cell, simulated serially in this process.
    """
    from repro.experiments.config import ExperimentScale
    from repro.runner.cells import execute_run_spec

    if pins:
        references = [(pins["cells"], False)]
        if workload.scale() == ExperimentScale.smoke():
            references.append((golden_digests(workload.scenario), True))
        return references
    serial = render("serial", [execute_run_spec(cell) for cell in cells if cell.replicate == 0])
    return [(cell_digests(serial), True)]


def check_service(units: List[Unit], cells, references, pins, tally: Tally) -> None:
    """Cold jobs all misses and equal to the references; warm all hits, byte-identical."""
    from repro.canonical import canonical_digest, canonical_json

    count = len(cells)
    keys = {f"{cell.cell_id}#{cell.replicate}" for cell in cells}
    first = None
    for unit in units:
        for job in unit.cold:
            status = job.status
            tally.require(status["cache_hits"] == 0 and status["cache_misses"] == job.cells,
                          "a cold pass was not all cache misses")
            tally.require(job.document is not None,
                          f"a cold job ended {status['state']}: {status.get('error')}")
        cold = {"cells": [cell for job in unit.cold if job.document is not None
                          for cell in job.document["cells"]]}
        # a cell a failed job never returned is wrong too
        wrong = keys - cell_digests(cold).keys()
        for reference, partial in references if first is None else [(first, False)]:
            wrong |= mismatched(cold, reference, partial)
        tally.cells(count, len(wrong))
        if first is None:
            first = cell_digests(cold)

        text = None
        for job in unit.warm:
            tally.require(job.status["cache_hits"] == count and job.status["cache_misses"] == 0,
                          "a warm pass was not all cache hits")
            if job.document is None:
                tally.cells(count, count)
                tally.require(False, "a warm job did not finish")
                continue
            if text is None:
                text = canonical_json(job.document)
                tally.require(not pins or canonical_digest(job.document) == pins["document"],
                              "the results document differs from the pinned one")
            tally.require(canonical_json(job.document) == text,
                          "a warm results document differs from the unit's first one")
            tally.cells(count, len(mismatched(job.document, first)))


def run_service(workload, spec, seconds, work_dir, ready, pins, tally):
    """Units on fresh services and caches, repeated until ``seconds`` have passed."""
    cells = list(spec.cells)
    count = len(cells)
    units = []
    host = HostSpeed()
    with running_service(work_dir / "cache-0") as (service, client):
        ready()
        started = time.perf_counter()
        units.append(service_unit(service, client, spec.name, cells, host))
    # the peak of the first unit, worker included: the process keeps memory
    # from the units after it, and how many fit in the time varies
    first_unit_rss = peak_rss_mb()
    while time.perf_counter() - started < seconds:
        with running_service(work_dir / f"cache-{len(units)}") as (service, client):
            units.append(service_unit(service, client, spec.name, cells, host))
    check_service(units, cells, service_references(workload, cells, pins), pins, tally)

    commits = sum(cell["metrics"]["commits"] for job in units[0].cold if job.document
                  for cell in job.document["cells"])
    # a cold pass at the reference speed: every replicate's job at its fastest
    cold = host.factor * sum(min(unit.cold[index].seconds for unit in units)
                             for index in range(len(units[0].cold)))
    warm = host.factor * min(job.seconds for unit in units for job in unit.warm)
    metrics = {
        "commits_per_s": commits / cold,
        "cold_cells_per_s": count / cold,
        "warm_cells_per_s": count / warm,
        "peak_rss_mb": first_unit_rss,
    }
    return metrics, {"cold_seconds": [[job.seconds for job in unit.cold] for unit in units],
                     "warm_seconds": [[job.seconds for job in unit.warm] for unit in units],
                     "host_factor": host.factor}


def run_traced(workload, spec, work_dir, ready, pins, tally):
    """An untraced unit, then a traced one, through a service of the workload's cells.

    Every workload is served here, so every per-layer metric is measured on
    every workload.  The worker profiles only cell execution, the same
    ``execute_run_spec`` an in-process sweep runs; meters in this process
    time the service's threads, and the telemetry spans of the coordinator
    and the worker give execution, idle gap and round trip per cell.
    """
    from repro.obs import telemetry

    cells = list(spec.cells)
    count = len(cells)
    host = HostSpeed()
    with running_service(work_dir / "cache-untraced") as (service, client):
        ready()
        untraced = service_unit(service, client, spec.name, cells, host)

    meters = Meters()
    spans = work_dir / "spans.jsonl"
    profile = work_dir / "worker.prof"
    cache_dir = work_dir / "cache-traced"
    # metered from before the worker joins, so its hello and first ready
    # frame always count: frames are 3 per cell plus those 2
    install_meters(meters)
    try:
        with telemetry.telemetry_to(str(spans)):
            with running_service(cache_dir, worker_profile=profile) as (service, client):
                traced = service_unit(service, client, spec.name, cells, host)
    finally:
        meters.restore()
    check_service([untraced, traced], cells, service_references(workload, cells, pins),
                  pins, tally)

    records = [json.loads(line) for line in spans.read_text().splitlines() if line.strip()]
    metrics = profile_metrics(pstats.Stats(str(profile)).stats)
    metrics.update(span_metrics(records, cells, tally))
    metrics.update(meter_metrics(meters, count, traced, cache_dir))
    metrics["trace.overhead_ratio"] = traced.seconds / untraced.seconds
    return metrics, {"untraced_unit_seconds": untraced.seconds,
                     "traced_unit_seconds": traced.seconds}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run(name: str, seed: Optional[int] = None, seconds: float = 20.0, mode: str = "timed",
        work_dir=".", ready=None, scale=None) -> dict:
    """Run one workload and return the record ``run.py`` reports from.

    ``scale`` replaces the workload's own scale (the self-tests run tiny
    ones); the pinned digests and the golden fixture then do not apply.
    """
    import numpy

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    spec = build_spec(workload, seed, scale)
    pins = pinned_reference(workload, seed) if scale is None else None
    tally = Tally()
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    ready = ready or (lambda: None)
    if mode == "setup":
        if workload.service:
            with running_service(work_dir / "cache"):
                ready()
        else:
            ready()
        # the host's speed right after set-up, which run.py scales it by
        host = HostSpeed()
        for _ in range(SETUP_REFERENCE_LOOPS):
            host.sample()
        metrics, details = {}, {"host_factor": host.factor}
    else:
        if mode == "traced":
            metrics, details = run_traced(workload, spec, work_dir, ready, pins, tally)
        elif workload.service:
            metrics, details = run_service(workload, spec, seconds, work_dir, ready, pins,
                                           tally)
        else:
            ready()
            metrics, details = run_in_process(spec, seconds, pins, tally)
        check_golden(workload, tally)
    return {"workload": name, "seed": seed, "mode": mode, "correct": tally.correct,
            "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
            "metrics": metrics, "details": details, "numpy": numpy.__version__}


def write_pins() -> None:
    """Rewrite ``pinned.json`` from serial in-process runs at every default seed."""
    from repro.canonical import canonical_digest
    from repro.runner.api import run_sweep

    pins = {}
    for workload in WORKLOADS.values():
        spec = build_spec(workload, workload.default_seed)
        document = render(spec.name, run_sweep(spec, workers=0).results)
        pins[workload.name] = {"seed": workload.default_seed,
                               "document": canonical_digest(document),
                               "cells": cell_digests(document)}
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    """Run one workload in this process (``run.py`` starts it)."""
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the base parameters (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "pin"), default="timed")
    parser.add_argument("--work", type=Path, help="directory for caches, spans and result.json")
    parser.add_argument("--ready-fd", type=int, default=None,
                        help="file descriptor to write one byte to when set-up is done")
    args = parser.parse_args(argv)
    if args.mode == "pin":
        write_pins()
        return 0
    if args.workload is None or args.work is None:
        parser.error("--workload and --work are required")

    if hasattr(os, "sched_setaffinity"):
        # this process and the worker it starts share one CPU, the one the
        # host-speed loop times
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ready = None
    if args.ready_fd is not None:
        def ready() -> None:
            os.write(args.ready_fd, b"R")
            os.close(args.ready_fd)

    result = run(args.workload, args.seed, args.seconds, args.mode, args.work, ready)
    (args.work / "result.json").write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
