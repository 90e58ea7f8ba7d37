"""Shared fixtures and helpers for the benchmark harness.

Each benchmark regenerates the data series behind one figure of the paper
(or one ablation called out in DESIGN.md).  The benchmarks are *experiment
drivers*, not micro-benchmarks: the interesting output is the series they
print (run ``pytest benchmarks/ --benchmark-only -s``) and attach to the
pytest-benchmark ``extra_info``; the timing numbers simply document how long
each experiment takes to reproduce.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

* ``smoke``      -- seconds per experiment, noisy results
* ``benchmark``  -- the default; a few minutes for the whole suite
* ``paper``      -- full-size runs approximating the paper's figures

Execution is controlled with two more variables, both forwarded to
:func:`repro.runner.run_sweep`:

* ``REPRO_BENCH_WORKERS``    -- local dist worker processes per sweep
  (0 = serial, the default; results are identical for every setting)
* ``REPRO_BENCH_REPLICATES`` -- independent replicates per cell (default 1;
  with more, the sweep tables report mean ± 95% CI)

With ``REPRO_BENCH_ARTIFACTS=DIR`` set, the session additionally writes one
machine-readable ``BENCH_<name>.json`` per benchmark into ``DIR``: the
selected scale/workers/replicates, the timing statistics, and the full
``extra_info`` series the benchmark attached.  The files are
before/after-friendly — stable keys, sorted, one file per benchmark — so
two runs can be diffed or joined by filename in CI.
"""

import json
import os
import re

import pytest

from repro.experiments.config import ExperimentScale


def _selected_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "benchmark").lower()
    if name == "smoke":
        return ExperimentScale.smoke()
    if name == "paper":
        return ExperimentScale.paper()
    return ExperimentScale.benchmark()


def _int_env(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None or not value.strip():
        return default
    return int(value)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale selected via REPRO_BENCH_SCALE."""
    return _selected_scale()


@pytest.fixture(scope="session")
def workers() -> int:
    """Worker processes per sweep, selected via REPRO_BENCH_WORKERS."""
    return _int_env("REPRO_BENCH_WORKERS", 0)


@pytest.fixture(scope="session")
def replicates() -> int:
    """Replicates per cell, selected via REPRO_BENCH_REPLICATES."""
    return max(1, _int_env("REPRO_BENCH_REPLICATES", 1))


def _artifact_name(bench_name: str) -> str:
    """``BENCH_<name>.json`` with the benchmark name made filename-safe."""
    return f"BENCH_{re.sub(r'[^A-Za-z0-9._-]+', '_', bench_name)}.json"


def _timing_stats(bench) -> dict:
    stats = getattr(bench, "stats", None)
    if stats is None:
        return {}
    timing = {}
    for key in ("min", "max", "mean", "stddev", "rounds"):
        value = getattr(stats, key, None)
        if value is not None:
            timing[key] = value
    return timing


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per benchmark when artifacts are on.

    Gated on ``REPRO_BENCH_ARTIFACTS`` so plain local runs stay
    side-effect-free; everything is read defensively because
    pytest-benchmark's session object is an internal surface.
    """
    artifact_dir = os.environ.get("REPRO_BENCH_ARTIFACTS")
    if not artifact_dir:
        return
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(benchmark_session, "benchmarks", None) or []
    if not benchmarks:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    for bench in benchmarks:
        name = getattr(bench, "name", None) or getattr(bench, "fullname", "benchmark")
        payload = {
            "name": name,
            "fullname": getattr(bench, "fullname", name),
            "group": getattr(bench, "group", None),
            "scale": os.environ.get("REPRO_BENCH_SCALE", "benchmark"),
            "workers": _int_env("REPRO_BENCH_WORKERS", 0),
            "replicates": max(1, _int_env("REPRO_BENCH_REPLICATES", 1)),
            "timing": _timing_stats(bench),
            "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
        }
        path = os.path.join(artifact_dir, _artifact_name(str(name)))
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, sort_keys=True, indent=2, default=str)
            stream.write("\n")


def run_once(benchmark, function):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are long-running simulations; repeating them for
    statistical timing accuracy would multiply the suite's runtime without
    adding information, so every benchmark uses a single round.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)
