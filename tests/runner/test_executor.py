"""Executor tests, including the serial/``workers=N`` determinism guarantee."""

import dataclasses
import pickle
import threading

import pytest

from repro.dist.coordinator import DistributedExecutor
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario
from repro.runner import api
from repro.runner.api import run_sweep
from repro.runner.cells import execute_run_spec
from repro.runner.errors import (
    CellExecutionError,
    describe_item,
    run_with_cell_context,
)
from repro.runner.executor import SerialExecutor, make_executor
from repro.runner.specs import (
    KIND_STATIONARY,
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    SweepSpec,
    run_spec_fingerprint,
)

#: a scale small enough that a whole determinism sweep runs in seconds
TINY = ExperimentScale(
    stationary_horizon=2.0,
    warmup=0.5,
    offered_loads=(10, 30),
    tracking_horizon=12.0,
    measurement_interval=2.0,
    synthetic_steps=30,
)


def _mixed_sweep() -> SweepSpec:
    """Stationary and tracking cells, controlled and uncontrolled."""
    base = default_system_params()
    cells = [
        RunSpec(kind=KIND_STATIONARY, cell_id=f"mix/none/N={load}",
                params=base.with_changes(n_terminals=load), scale=TINY,
                controller=None, label="none")
        for load in TINY.offered_loads
    ]
    cells.extend(
        RunSpec(kind=KIND_STATIONARY, cell_id=f"mix/pa/N={load}",
                params=base.with_changes(n_terminals=load), scale=TINY,
                controller=ControllerSpec.make("parabola"), label="pa")
        for load in TINY.offered_loads
    )
    scenario = jump_scenario("accesses", 4, 8, jump_time=TINY.tracking_horizon / 2.0)
    cells.append(
        RunSpec(kind=KIND_TRACKING, cell_id="mix/is-jump",
                params=base.with_changes(n_terminals=60), scale=TINY,
                controller=ControllerSpec.make("incremental_steps"),
                scenario=scenario, label="is-jump")
    )
    return SweepSpec(name="mix", cells=tuple(cells))


def _double(value):
    return 2 * value


@pytest.fixture(scope="module")
def cluster():
    """One ``make_executor(2)`` cluster shared by this module's fan-out tests."""
    executor = make_executor(2)
    yield executor
    executor.close()


class TestMakeExecutor:
    def test_zero_and_one_are_serial(self):
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_is_a_started_local_cluster(self, cluster):
        assert isinstance(cluster, DistributedExecutor)
        assert len(cluster.processes) == 2
        assert cluster.workers == 2

    def test_close_reaps_the_worker_processes(self):
        executor = make_executor(2)
        processes = list(executor.processes)
        executor.close()
        assert [process.poll() for process in processes] == [0, 0]

    def test_none_is_one_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        executor = make_executor(None)
        try:
            assert isinstance(executor, DistributedExecutor)
            assert executor.workers == 2
        finally:
            executor.close()

    def test_none_with_an_unknown_cpu_count_is_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert isinstance(make_executor(None), SerialExecutor)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_executor(-1)


class TestOrderingAndStreaming:
    def test_serial_preserves_order(self):
        assert SerialExecutor().execute(_double, range(10)) == [2 * i for i in range(10)]

    def test_workers_preserve_order(self, cluster):
        # the mapped function must import in a fresh interpreter: a builtin
        assert cluster.execute(str, range(32)) == [str(i) for i in range(32)]

    def test_workers_empty_items(self, cluster):
        assert cluster.execute(str, []) == []

    def test_serial_map_is_lazy(self):
        calls = []

        def record(value):
            calls.append(value)
            return value

        iterator = SerialExecutor().map(record, [1, 2, 3])
        assert calls == []
        assert next(iterator) == 1
        assert calls == [1]


class _ClosingRecorder(SerialExecutor):
    """A serial executor that records whether it was closed."""

    closed = False

    def close(self):
        self.closed = True


class TestRunSweepOwnership:
    """``run_sweep`` closes the executor it makes, never a caller's."""

    def test_closes_the_executor_it_makes_also_on_failure(self, monkeypatch):
        made = []

        def recording_make_executor(workers):
            made.append(_ClosingRecorder())
            return made[-1]

        monkeypatch.setattr(api, "make_executor", recording_make_executor)
        one_cell = SweepSpec(name="one", cells=_mixed_sweep().cells[:1])
        assert len(run_sweep(one_cell, workers=2).results) == 1
        broken = dataclasses.replace(
            one_cell.cells[0], controller=ControllerSpec.make("no_such_controller"))
        with pytest.raises(KeyError, match="no_such_controller"):
            run_sweep(SweepSpec(name="broken", cells=(broken,)), workers=2)
        assert [executor.closed for executor in made] == [True, True]

    def test_leaves_a_ready_executor_open(self):
        ready = _ClosingRecorder()
        one_cell = SweepSpec(name="one", cells=_mixed_sweep().cells[:1])
        assert len(run_sweep(one_cell, executor=ready).results) == 1
        assert not ready.closed


def _explode(item):
    raise ValueError("injected cell failure")


class TestCellErrorWrapping:
    """A worker crash must name the failing cell, not dump a bare traceback."""

    def test_workers_failure_names_the_cell(self, cluster):
        sweep = _mixed_sweep()
        # an unknown controller kind fails inside the worker, at build time
        broken = RunSpec(kind=KIND_STATIONARY, cell_id="mix/broken/N=10",
                         params=sweep.cells[0].params, scale=TINY,
                         controller=ControllerSpec.make("no_such_controller"),
                         label="broken")
        with pytest.raises(CellExecutionError) as caught:
            cluster.execute(execute_run_spec, (broken,) + sweep.cells[1:])
        assert caught.value.cell_id == broken.cell_id
        message = str(caught.value)
        assert broken.cell_id in message
        assert f"N={broken.params.n_terminals}" in message
        assert "KeyError" in message and "no_such_controller" in message

    def test_failure_while_workers_send_results_does_not_hang(self, cluster):
        """A failing cell ends the sweep promptly while the other worker sends results.

        ``bytes(-1)`` raises; every other cell returns 4 MiB, large enough
        that a send takes a while.  The results still in flight are dropped,
        and the cluster serves the next sweep.  The rounds run in a thread,
        so a regression fails on the timeout instead of hanging the suite.
        """
        outcome = {}

        def rounds():
            for _ in range(5):
                try:
                    cluster.execute(bytes, [4 << 20] * 3 + [-1] + [4 << 20] * 4)
                except CellExecutionError as exc:
                    outcome.setdefault("errors", []).append(str(exc))
            outcome["after"] = cluster.execute(len, ["ab", "c"])

        runner = threading.Thread(target=rounds, daemon=True)
        runner.start()
        runner.join(timeout=90)
        assert not runner.is_alive(), "a failed sweep hung the cluster"
        assert len(outcome["errors"]) == 5
        assert all("-1 failed: ValueError" in error for error in outcome["errors"])
        assert outcome["after"] == [2, 1]

    def test_error_survives_pickling(self):
        error = CellExecutionError("cell 'x' failed: boom", cell_id="x")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.cell_id == "x"

    def test_run_with_cell_context_passes_results_through(self):
        assert run_with_cell_context(_double, 21) == 42

    def test_run_with_cell_context_does_not_double_wrap(self):
        def reraise(_item):
            raise CellExecutionError("already wrapped", cell_id="inner")

        with pytest.raises(CellExecutionError, match="already wrapped") as caught:
            run_with_cell_context(reraise, object())
        assert caught.value.cell_id == "inner"

    def test_describe_item_falls_back_to_repr(self):
        assert describe_item(42) == "42"
        long_item = "x" * 500
        assert len(describe_item(long_item)) <= 200

    def test_serial_executor_raises_the_original_exception(self):
        # serially the failure unwinds directly into the caller's stack,
        # which is already debuggable; only fan-out executors wrap
        with pytest.raises(ValueError, match="injected cell failure"):
            SerialExecutor().execute(_explode, _mixed_sweep().cells)


class TestDeterminism:
    """Acceptance: workers=0 and workers=2 produce identical cells, bitwise."""

    def test_parallel_matches_serial_bitwise(self, cluster):
        sweep = _mixed_sweep()
        serial = SerialExecutor().execute(execute_run_spec, sweep.cells)
        parallel = cluster.execute(execute_run_spec, sweep.cells)

        assert [r.cell_id for r in serial] == [r.cell_id for r in parallel]
        for left, right in zip(serial, parallel):
            # exact equality, not approx: the runs must be bitwise identical
            assert left.metrics == right.metrics, left.cell_id

        # the tracking payload must match sample by sample as well
        left_track = serial[-1].payload
        right_track = parallel[-1].payload
        assert left_track.trace.times == right_track.trace.times
        assert left_track.trace.limits == right_track.trace.limits
        assert left_track.trace.throughput == right_track.trace.throughput

    def test_stateful_policies_do_not_leak_between_cells(self, cluster):
        # replicate expansion shares the spec's policy and tuner instances,
        # so a run that kept state on them would make serial and parallel
        # runs diverge; the run keeps its state in its measurement process
        from repro.core.displacement import DisplacementPolicy, VictimCriterion
        from repro.core.outer_loop import MeasurementIntervalTuner

        base = default_system_params()
        scenario = jump_scenario("accesses", 4, 8, jump_time=TINY.tracking_horizon / 2.0)
        cell = RunSpec(
            kind=KIND_TRACKING, cell_id="tuner/pa", params=base.with_changes(n_terminals=60),
            scale=TINY, controller=ControllerSpec.make("parabola"),
            scenario=scenario, label="pa",
            displacement=DisplacementPolicy(criterion=VictimCriterion.YOUNGEST),
            interval_tuner=MeasurementIntervalTuner(target_departures=None,
                                                    relative_accuracy=0.2),
        )
        sweep = SweepSpec(name="tuner", cells=(cell,)).with_replicates(3)
        serial = SerialExecutor().execute(execute_run_spec, sweep.cells)
        parallel = cluster.execute(execute_run_spec, sweep.cells)
        for left, right in zip(serial, parallel):
            assert left.metrics == right.metrics, left.replicate

    def test_replicates_are_deterministic_and_distinct(self, cluster):
        sweep = SweepSpec(name="rep", cells=(_mixed_sweep().cells[0],)).with_replicates(3)
        first = SerialExecutor().execute(execute_run_spec, sweep.cells)
        second = cluster.execute(execute_run_spec, sweep.cells)
        for left, right in zip(first, second):
            assert left.metrics == right.metrics
        # different replicates see different variates (independent streams)
        throughputs = [result.metrics["throughput"] for result in first]
        assert len(set(throughputs)) > 1


class TestCellsHoldNoRunState:
    """Running a cell leaves its spec unchanged, so its cache key holds."""

    @staticmethod
    def _tracking_cell() -> RunSpec:
        from repro.core.displacement import DisplacementPolicy, VictimCriterion
        from repro.core.outer_loop import MeasurementIntervalTuner

        return RunSpec(
            kind=KIND_TRACKING, cell_id="state/tracking",
            params=default_system_params().with_changes(n_terminals=60),
            scale=TINY, controller=ControllerSpec.make("parabola"),
            scenario=jump_scenario("accesses", 4, 16,
                                   jump_time=TINY.tracking_horizon / 2.0),
            displacement=DisplacementPolicy(VictimCriterion.YOUNGEST, hysteresis=0),
            interval_tuner=MeasurementIntervalTuner(target_departures=None,
                                                    relative_accuracy=0.2),
        )

    @staticmethod
    def _open_cell() -> RunSpec:
        from repro.tp.arrivals import OpenArrivals
        from repro.tp.workload import SinusoidSchedule

        # the rate dips below zero for a third of every period
        rate = SinusoidSchedule(mean=20.0, amplitude=40.0, period=0.5)
        return RunSpec(
            kind=KIND_STATIONARY, cell_id="state/open",
            params=default_system_params(), scale=TINY,
            controller=ControllerSpec.make("incremental_steps"),
            arrivals=OpenArrivals(rate),
        )

    @pytest.mark.parametrize("make", ["_tracking_cell", "_open_cell"],
                             ids=["tracking", "open"])
    def test_running_a_cell_leaves_its_spec_unchanged(self, make):
        cell = getattr(self, make)()
        # replicate expansion shares the cell's values between replicates
        sweep = SweepSpec(name="state", cells=(cell,)).with_replicates(2)

        def identity():
            return [(pickle.dumps(spec), hash(spec), run_spec_fingerprint(spec))
                    for spec in sweep.cells]

        before = identity()
        results = SerialExecutor().execute(execute_run_spec, sweep.cells)
        assert all(result.metrics["commits"] > 0 for result in results)
        assert identity() == before
