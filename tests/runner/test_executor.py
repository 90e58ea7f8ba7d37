"""Executor tests, including the serial/parallel determinism guarantee."""

import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.dist.cluster import _worker_env
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario
from repro.runner.cells import execute_run_spec
from repro.runner.errors import (
    CellExecutionError,
    describe_item,
    run_with_cell_context,
)
from repro.runner.executor import ParallelExecutor, SerialExecutor, make_executor
from repro.runner.specs import (
    KIND_STATIONARY,
    KIND_TRACKING,
    ControllerSpec,
    RunSpec,
    SweepSpec,
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


class TestMakeExecutor:
    def test_zero_and_one_are_serial(self):
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_is_parallel(self):
        executor = make_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_executor(-1)

    def test_parallel_requires_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            ParallelExecutor(workers=1)


class TestOrderingAndStreaming:
    def test_serial_preserves_order(self):
        assert SerialExecutor().execute(_double, range(10)) == [2 * i for i in range(10)]

    def test_parallel_preserves_order(self):
        assert ParallelExecutor(workers=4).execute(_double, range(32)) == \
            [2 * i for i in range(32)]

    def test_parallel_empty_items(self):
        assert ParallelExecutor(workers=2).execute(_double, []) == []

    def test_serial_map_is_lazy(self):
        calls = []

        def record(value):
            calls.append(value)
            return value

        iterator = SerialExecutor().map(record, [1, 2, 3])
        assert calls == []
        assert next(iterator) == 1
        assert calls == [1]


def _explode(item):
    raise ValueError("injected cell failure")


class TestCellErrorWrapping:
    """A worker crash must name the failing cell, not dump a bare traceback."""

    def test_parallel_failure_names_the_cell(self):
        sweep = _mixed_sweep()
        with pytest.raises(CellExecutionError) as caught:
            ParallelExecutor(workers=2).execute(_explode, sweep.cells)
        first = sweep.cells[0]
        assert caught.value.cell_id == first.cell_id
        message = str(caught.value)
        assert first.cell_id in message
        assert f"N={first.params.n_terminals}" in message
        assert "ValueError: injected cell failure" in message

    def test_failure_while_workers_send_results_does_not_hang(self):
        """The pool shuts down cleanly while other workers are mid-result.

        A ``multiprocessing.Pool`` terminated on the failure killed workers
        mid-write, left the result queue's lock held and hung within a few
        of these rounds.  The rounds run in a subprocess, so a regression
        fails on the timeout instead of hanging the suite.
        """
        script = textwrap.dedent("""
            import time
            from repro.runner.errors import CellExecutionError
            from repro.runner.executor import ParallelExecutor

            def fail_first(item):
                if item == 0:
                    time.sleep(0.05)  # the other worker is sending results by now
                    raise ValueError("injected cell failure")
                return bytes(4 << 20)  # large enough that a send takes a while

            for _ in range(25):
                try:
                    ParallelExecutor(workers=2).execute(fail_first, range(8))
                except CellExecutionError:
                    continue
                raise SystemExit("the failing cell was not reported")
        """)
        completed = subprocess.run([sys.executable, "-c", script], env=_worker_env(),
                                   capture_output=True, text=True, timeout=90)
        assert completed.returncode == 0, completed.stderr

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
    """Acceptance: workers=0 and workers=4 produce identical cells, bitwise."""

    def test_parallel_matches_serial_bitwise(self):
        sweep = _mixed_sweep()
        serial = SerialExecutor().execute(execute_run_spec, sweep.cells)
        parallel = ParallelExecutor(workers=4).execute(execute_run_spec, sweep.cells)

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

    def test_stateful_policies_do_not_leak_between_cells(self):
        # displacement policies and interval tuners accumulate run state;
        # replicate expansion shares the spec's instances, so the executor
        # must isolate them per execution or serial and parallel runs diverge
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
        parallel = ParallelExecutor(workers=3).execute(execute_run_spec, sweep.cells)
        for left, right in zip(serial, parallel):
            assert left.metrics == right.metrics, left.replicate

    def test_replicates_are_deterministic_and_distinct(self):
        sweep = SweepSpec(name="rep", cells=(_mixed_sweep().cells[0],)).with_replicates(3)
        first = SerialExecutor().execute(execute_run_spec, sweep.cells)
        second = ParallelExecutor(workers=3).execute(execute_run_spec, sweep.cells)
        for left, right in zip(first, second):
            assert left.metrics == right.metrics
        # different replicates see different variates (independent streams)
        throughputs = [result.metrics["throughput"] for result in first]
        assert len(set(throughputs)) > 1
