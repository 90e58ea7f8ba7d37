"""One artifact for a finished sweep: the results document.

``repro-dist-coordinator --archive DIR`` writes the document a serial run
renders with :func:`~repro.runner.api.results_document` and the sweep
service serves (``tests/svc/test_service.py::TestCli`` checks
``repro-svc results`` and ``GET /jobs/<id>/results`` against the same
bytes).  The mean ± CI table is a view of that document: restore it, fold
its cells with ``aggregate_cells`` and render with
``format_aggregate_table``.
"""

import contextlib
import dataclasses
import io
import json

import pytest

from repro.canonical import canonical_json, restore, sanitize
from repro.dist import coordinator
from repro.experiments.config import ExperimentScale
from repro.experiments.report import format_aggregate_table
from repro.runner import (
    RESULTS_FORMAT,
    CellResult,
    aggregate_cells,
    results_document,
    run_sweep,
)
from repro.runner import api as runner_api
from repro.svc import service as svc_service


def serial_sweep(scenario, replicates):
    return run_sweep(scenario, scale=ExperimentScale.smoke(), replicates=replicates)


def document_bytes(scenario, results):
    """The canonical results document, as every launcher writes it."""
    return canonical_json(results_document(scenario, results)) + "\n"


def coordinate(scenario, replicates, directory, local_workers=2):
    """Run ``repro-dist-coordinator --archive``; returns (stdout, the one file)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exit_code = coordinator.main([
            scenario, "--scale", "smoke", "--replicates", str(replicates),
            "--local-workers", str(local_workers),
            "--min-workers", str(local_workers), "--worker-wait", "60",
            "--archive", str(directory),
        ])
    assert exit_code == 0
    [path] = directory.glob("*.json")
    return printed.getvalue(), path


def view(document):
    """The mean ± CI aggregates of a results document."""
    return aggregate_cells(CellResult(**cell) for cell in restore(document)["cells"])


def every_field(aggregates):
    """Each aggregate's coordinates and every field of its metric summaries,
    with non-finite floats tagged so that NaN compares equal to NaN."""
    return sanitize([
        {"cell_id": aggregate.cell_id, "kind": aggregate.kind,
         "label": aggregate.label, "count": aggregate.count,
         "metrics": {name: dataclasses.asdict(summary)
                     for name, summary in aggregate.metrics.items()}}
        for aggregate in aggregates])


@pytest.fixture(scope="module")
def thrashing(tmp_path_factory):
    """Smoke ``thrashing`` at 2 replicates: serial result, coordinator run."""
    directory = tmp_path_factory.mktemp("thrashing")
    printed, path = coordinate("thrashing", 2, directory)
    return serial_sweep("thrashing", 2), printed, path


class TestOneArtifact:
    def test_the_coordinator_writes_the_serial_document(self, thrashing):
        result, _printed, path = thrashing
        assert path.read_bytes() == document_bytes("thrashing", result.results).encode()

    def test_cc_compare_too(self, tmp_path):
        _printed, path = coordinate("cc_compare", 2, tmp_path)
        result = serial_sweep("cc_compare", 2)
        assert path.read_text(encoding="utf-8") == document_bytes("cc_compare", result.results)

    def test_the_service_renders_the_runner_document(self):
        # one definition; perfbench imports it from repro.svc.service
        assert svc_service.results_document is runner_api.results_document is results_document


class TestTheFile:
    def test_is_named_by_scenario_scale_and_replicates(self, thrashing):
        _result, _printed, path = thrashing
        assert path.name == "thrashing__smoke__r2.json"

    def test_a_second_run_rewrites_the_same_bytes(self, thrashing):
        _result, _printed, path = thrashing
        first = path.read_bytes()
        _again, second = coordinate("thrashing", 2, path.parent, local_workers=1)
        assert second == path
        assert second.read_bytes() == first

    def test_carries_the_results_format(self, thrashing):
        _result, _printed, path = thrashing
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format"] == RESULTS_FORMAT
        assert document["name"] == "thrashing"
        assert document["n_cells"] == 6

    def test_an_uncontrolled_cell_final_limit_is_tagged(self, thrashing):
        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        _result, _printed, path = thrashing
        document = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        assert [cell["metrics"]["final_limit"] for cell in document["cells"]] \
            == ["__inf__"] * 6


class TestTheView:
    @pytest.mark.parametrize("scenario, replicates",
                             [("thrashing", 3), ("cc_compare", 2)])
    def test_rebuilds_the_sweep_aggregates(self, scenario, replicates):
        result = serial_sweep(scenario, replicates)
        document = json.loads(document_bytes(scenario, result.results))
        assert every_field(view(document)) == every_field(result.aggregates)

    def test_renders_the_table_the_coordinator_printed(self, thrashing):
        _result, printed, path = thrashing
        document = json.loads(path.read_text(encoding="utf-8"))
        assert printed == format_aggregate_table(view(document)) + "\n"
        assert "±" in printed
