"""Self-tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``.

They stay out of the tier-1 suite (its ``testpaths`` is ``tests``) and out
of the ``benchmarks/bench_*.py`` smoke glob.
"""

import json
import math
import pickle
import re
import socket
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import draws  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from meters import Meters  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: a scale at which every workload finishes in a few seconds
TINY = dict(stationary_horizon=2.0, warmup=0.5, offered_loads=(10, 30),
            tracking_horizon=12.0, measurement_interval=1.0, synthetic_steps=30)


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(path.relative_to(workloads.PACKAGE_DIR).as_posix()
                     for path in workloads.PACKAGE_DIR.rglob("*.py"))
    assert modules
    for module in modules:
        assert layers.module_layer(module) in layers.LAYERS, module
    # no entry is stale: each one covers at least one module
    for entry in layers.MODULE_LAYERS:
        assert any(module == entry or (entry.endswith("/") and module.startswith(entry))
                   for module in modules), entry


def test_builtins_and_draw_frames_map_to_rng_or_python():
    layer_map = layers.LayerMap(workloads.PACKAGE_DIR, {draws.DRAW_FILE: "rng"})
    numpy_draw = "<method 'exponential' of 'numpy.random._generator.Generator' objects>"
    assert layer_map.layer(("~", 0, numpy_draw)) == "rng"
    assert layer_map.layer(("~", 0, "<built-in method _heapq.heappush>")) == "python"
    assert layer_map.layer((draws.DRAW_FILE, 1, "exponential")) == "rng"
    assert layer_map.layer((str(workloads.PACKAGE_DIR / "tp" / "metrics.py"), 1, "x")) == "metrics"
    assert layer_map.layer((str(workloads.PACKAGE_DIR / "tp" / "system.py"), 1, "x")) == "tp"


def test_entry_calls_count_only_calls_crossing_into_the_layer():
    package = workloads.PACKAGE_DIR
    caller = (str(package / "tp" / "system.py"), 1, "_transaction_lifecycle")
    recorder = (str(package / "cc" / "history.py"), 1, "access")
    scheme = (str(package / "cc" / "two_phase_locking.py"), 1, "access")
    stats = {
        caller: (1, 1, 0.3, 0.6, {}),
        recorder: (5, 5, 0.1, 0.3, {caller: (5, 5, 0.1, 0.3)}),
        scheme: (5, 5, 0.2, 0.2, {recorder: (5, 5, 0.2, 0.2)}),
    }
    layer_map = layers.LayerMap(package)
    assert layers.entry_calls(stats, layer_map, "cc", "access") == 5
    assert layers.entry_calls(stats, layer_map, "cc", "begin") == 0
    totals = layers.self_seconds(stats, layer_map)
    assert totals["cc"] == pytest.approx(0.3) and totals["tp"] == pytest.approx(0.3)
    assert set(totals) == set(layers.LAYERS)


def test_metric_and_workload_names_are_valid_and_unique():
    metrics = [metric["name"] for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    for name in metrics + names:
        assert NAME.match(name) and len(name) <= 64, name
    assert len(set(metrics)) == len(metrics)
    assert names == list(workloads.WORKLOADS)


def test_digest_check_catches_a_one_ulp_change_in_one_metric():
    from repro.canonical import canonical_digest
    from repro.runner.cells import CellResult

    results = [CellResult(cell_id=f"demo/N={load}", kind="stationary", replicate=0,
                          label="demo", metrics={"throughput": 10.0 / load,
                                                 "commits": float(load)})
               for load in (1, 3, 7)]
    document = workloads.render("demo", results)
    reference = workloads.cell_digests(document)
    assert workloads.mismatched(document, reference) == set()
    results[1].metrics["throughput"] = math.nextafter(results[1].metrics["throughput"], math.inf)
    nudged = workloads.render("demo", results)
    assert workloads.mismatched(nudged, reference) == {"demo/N=3#0"}
    assert canonical_digest(nudged) != canonical_digest(document)


def test_pins_cover_every_workload_at_its_default_seed():
    pins = json.loads(workloads.PINNED.read_text())
    assert set(pins) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        spec = workloads.build_spec(workload, workload.default_seed)
        assert pins[name]["seed"] == workload.default_seed
        assert set(pins[name]["cells"]) == {f"{cell.cell_id}#{cell.replicate}"
                                            for cell in spec.cells}


def test_meters_count_dist_frames_but_not_heartbeats_or_control_frames():
    from repro.dist import protocol

    original = protocol.send_message
    meters = Meters()
    meters.count_frames(protocol)
    meters.time_calls(protocol, "parse_address", "parse")
    try:
        left, right = socket.socketpair()
        with left, right:
            for message in [(protocol.MSG_READY,), (protocol.MSG_HEARTBEAT,),
                            (protocol.MSG_SVC_STATUS, None)]:
                protocol.send_message(left, message)
                assert protocol.recv_message(right) == message
        protocol.parse_address("127.0.0.1:1")
    finally:
        meters.restore()
    assert protocol.send_message is original
    frame = protocol.HEADER.size + len(pickle.dumps((protocol.MSG_READY,),
                                                    protocol=pickle.HIGHEST_PROTOCOL))
    # the ready frame, once sent and once received
    assert (meters.frames, meters.wire_bytes) == (2, 2 * frame)
    assert meters.calls["parse"] == 1 and meters.seconds["parse"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_runs_complete_without_failures(name, tmp_path):
    from repro.experiments.config import ExperimentScale

    scale = ExperimentScale(**TINY)
    timed = workloads.run(name, seconds=0, mode="timed", work_dir=tmp_path / "timed",
                          scale=scale)
    assert timed["correct"] and timed["failed"] == 0, timed["problems"]
    assert timed["attempted"] > 0
    # run.py adds the set-up time it measures from outside
    assert set(timed["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]
                                     if metric["name"] != "setup_s"}
    assert all(value > 0 for value in timed["metrics"].values())

    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    traced = [workloads.run(name, seconds=0, mode="traced", work_dir=tmp_path / f"traced-{run}",
                            scale=scale)
              for run in range(2)]
    for result in traced:
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert set(result["metrics"]) == set(units)
    counts = [metric for metric, unit in units.items() if unit in ("count", "B")]
    assert [traced[0]["metrics"][metric] for metric in counts] == \
        [traced[1]["metrics"][metric] for metric in counts]
