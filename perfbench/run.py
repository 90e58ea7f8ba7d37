"""Run the repository benchmark and print its metrics.

::

    python3 perfbench/run.py --workload closed_occ --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload at its default seed

Every sample runs in a fresh process (``workloads.py``).  A timed run
starts ``SETUP_SAMPLES`` of them: all time set-up from process start and
the last one also measures the workload with tracing off.  Each scales
its set-up time to the reference host speed it measures right after.
``--trace 1`` starts one traced process instead, which attributes time to
layers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit, the names and units of ``BENCHMARK.json``).  The full result, with
a record of the host (nproc, CPU model, Python, numpy, git sha), is kept
in ``.perfbench/results/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh processes per timed run that time set-up; the median is reported
SETUP_SAMPLES = 7
#: a run must end within 180 s; children still running after this are killed
DEADLINE_S = 170.0


def run_child(workload, seed, seconds, mode, work, deadline):
    """Start one ``workloads.py`` process; return its set-up seconds and result."""
    work.mkdir(parents=True)
    read_fd, write_fd = os.pipe()
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seconds", str(seconds), "--mode", mode, "--work", str(work),
               "--ready-fd", str(write_fd)]
    if seed is not None:
        command += ["--seed", str(seed)]
    started = time.perf_counter()
    try:
        # the child's output goes to stderr: stdout ends with our JSON line
        process = subprocess.Popen(command, pass_fds=(write_fd,), stdout=sys.stderr, cwd=ROOT)
    finally:
        os.close(write_fd)
    try:
        ready, _, _ = select.select([read_fd], [], [], max(deadline - time.monotonic(), 0.0))
        if not ready or not os.read(read_fd, 1):
            raise RuntimeError(f"{workload} {mode} process ended or stalled before set-up was done")
        setup_s = time.perf_counter() - started
        process.wait(timeout=max(deadline - time.monotonic(), 0.0))
    finally:
        os.close(read_fd)
        if process.poll() is None:
            # a worker of the killed child ends when its connection closes
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited with code {process.returncode}")
    result_path = work / "result.json"
    return setup_s, json.loads(result_path.read_text()) if result_path.exists() else None


def run_workload(workload, seed, seconds, trace, metric_specs, work) -> dict:
    """One timed or traced run of ``workload``; the result with metrics and units."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, result = run_child(workload, seed, seconds, "traced", work / "traced", deadline)
    else:
        setups = [run_child(workload, seed, seconds, "setup", work / f"setup-{index}", deadline)
                  for index in range(SETUP_SAMPLES - 1)]
        setups.append(run_child(workload, seed, seconds, "timed", work / "timed", deadline))
        result = setups[-1][1]
        # each process's set-up at the reference host speed it measured itself
        result["metrics"]["setup_s"] = statistics.median(
            setup * child["details"]["host_factor"] for setup, child in setups)
        result["details"]["setup_seconds"] = [setup for setup, _ in setups]
        result["details"]["setup_host_factors"] = [child["details"]["host_factor"]
                                                   for _, child in setups]
    result["metrics"] = {spec["name"]: {"value": result["metrics"][spec["name"]],
                                        "unit": spec["unit"]}
                         for spec in metric_specs}
    return result


def cpu_model() -> str:
    """The CPU model name, as the kernel reports it."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def save(result, trace) -> None:
    """Keep the full result and the host record under ``.perfbench/results``."""
    result["host"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                      "python": platform.python_version(), "numpy": result.pop("numpy"),
                      "git_sha": git_sha()}
    directory = ROOT / ".perfbench" / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def print_table(result) -> None:
    """One line per metric, with its unit."""
    print(f"{result['workload']} (seed {result['seed']}): {result['attempted']} cells, "
          f"{result['failed']} failed, correct={result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    """Run one workload (or all of them) and print the JSON result line."""
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload, each at its default seed)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the workload's base parameters (default: its own)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT} to measure", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    metric_specs = benchmark["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench" / "work" / str(os.getpid())
    results = []
    try:
        for workload in [args.workload] if args.workload else names:
            result = run_workload(workload, args.seed, seconds, args.trace, metric_specs,
                                  work / workload)
            save(result, args.trace)
            print_table(result)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{result['workload']}.{name}": metric
                   for result in results for name, metric in result["metrics"].items()}
    print(json.dumps({"correct": all(result["correct"] for result in results),
                      "attempted": sum(result["attempted"] for result in results),
                      "failed": sum(result["failed"] for result in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
