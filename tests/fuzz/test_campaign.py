"""Tests for the campaign loop and the repro-fuzz CLI."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentScale
from repro.fuzz import cli
from repro.fuzz import executor as campaign_module
from repro.fuzz.corpus import canonical_json, load_counterexample
from repro.fuzz.executor import FuzzReport, run_campaign
from repro.fuzz.generator import generate_candidates
from repro.fuzz.oracle import FailureThresholds
from repro.runner.cells import CellResult

#: a deliberately tiny scale: campaign determinism does not depend on run
#: length, so these tests trade statistical meaning for speed
TINY = ExperimentScale(
    stationary_horizon=3.0,
    warmup=1.0,
    offered_loads=(25,),
    tracking_horizon=20.0,
    measurement_interval=2.0,
    synthetic_steps=50,
)

#: thresholds strict enough that nearly every run is a counterexample —
#: used to exercise the archive path without depending on calibration
STRICT = FailureThresholds(rescue_fraction=0.95, min_commit_rate=0.5)


class StubExecutor:
    """Returns canned zero-throughput results without simulating."""

    def __init__(self):
        self.calls = 0
        self.closed = False

    def close(self):
        self.closed = True

    def execute(self, function, items):
        self.calls += 1
        return [
            CellResult(cell_id=item.cell_id, kind=item.kind, replicate=0,
                       metrics={"throughput": 0.0, "commits": 0.0})
            for item in items
        ]


class TestCampaignWiring:
    def test_verdicts_follow_candidate_order(self):
        executor = StubExecutor()
        report = run_campaign(seed=1, budget=4, executor=executor)
        assert executor.calls == 1
        assert [v.cell_id for v in report.verdicts] == [
            cell.cell_id for _, cell in report.candidates
        ]

    def test_zero_throughput_runs_all_become_counterexamples(self):
        report = run_campaign(seed=1, budget=3, executor=StubExecutor())
        assert report.found == 3
        for counterexample in report.counterexamples:
            assert counterexample.verdict.failed
            assert "collapse" in counterexample.verdict.reasons

    def test_counterexamples_pair_adversary_with_its_lowered_cell(self):
        report = run_campaign(seed=1, budget=3, executor=StubExecutor())
        for counterexample in report.counterexamples:
            assert counterexample.spec.cell_id == counterexample.adversary.cell_id()

    def test_report_found_counts_counterexamples(self):
        report = FuzzReport(seed=1, budget=1)
        assert report.found == 0

    def test_the_campaign_closes_the_executor_it_makes(self, monkeypatch):
        made = []

        def stub_make_executor(workers):
            made.append(StubExecutor())
            return made[-1]

        monkeypatch.setattr(campaign_module, "make_executor", stub_make_executor)
        run_campaign(seed=1, budget=2, workers=2)
        ready = StubExecutor()
        run_campaign(seed=1, budget=2, executor=ready)
        assert [executor.closed for executor in made] == [True]
        assert not ready.closed


class TestCampaignDeterminism:
    def test_two_campaigns_archive_byte_identical_counterexamples(self, tmp_path):
        from repro.fuzz.corpus import archive_counterexamples

        runs = []
        for label in ("a", "b"):
            report = run_campaign(seed=7, budget=2, scale=TINY,
                                  thresholds=STRICT, kinds=["hot_key"])
            paths = archive_counterexamples(report.counterexamples,
                                            tmp_path / label)
            runs.append({p.name: p.read_bytes() for p in paths})
        assert runs[0], "strict thresholds should make the tiny campaign fail"
        assert runs[0] == runs[1]

    def test_serial_and_parallel_campaigns_agree_bitwise(self):
        serial = run_campaign(seed=3, budget=2, scale=TINY, workers=0,
                              kinds=["arrival_burst"])
        parallel = run_campaign(seed=3, budget=2, scale=TINY, workers=2,
                                kinds=["arrival_burst"])
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]
        assert serial.verdicts == parallel.verdicts

    def test_campaign_candidates_match_the_generator(self):
        report = run_campaign(seed=5, budget=3, executor=StubExecutor())
        assert [a for a, _ in report.candidates] == generate_candidates(5, 3)


def make_report(found: bool) -> FuzzReport:
    report = run_campaign(seed=1, budget=2, executor=StubExecutor())
    if not found:
        report = dataclasses.replace(report, counterexamples=[])
    return report


class TestCli:
    def test_smoke_run_exits_zero_and_prints_verdicts(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_campaign",
                            lambda **kwargs: make_report(found=True))
        assert cli.main(["--seed", "1", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "counterexample(s) in 2 candidates" in out
        assert "FAIL(" in out

    def test_archive_flag_writes_replayable_documents(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_campaign",
                            lambda **kwargs: make_report(found=True))
        corpus = tmp_path / "corpus"
        assert cli.main(["--budget", "2", "--archive", str(corpus)]) == 0
        paths = sorted(corpus.glob("*.json"))
        assert len(paths) == 2
        for path in paths:
            assert load_counterexample(path).verdict.failed

    def test_expect_counterexample_fails_an_empty_campaign(self, monkeypatch):
        monkeypatch.setattr(cli, "run_campaign",
                            lambda **kwargs: make_report(found=False))
        assert cli.main(["--budget", "2", "--expect-counterexample"]) == 1

    def test_expect_counterexample_passes_when_found(self, monkeypatch):
        monkeypatch.setattr(cli, "run_campaign",
                            lambda **kwargs: make_report(found=True))
        assert cli.main(["--budget", "2", "--expect-counterexample"]) == 0

    def test_threshold_flags_reach_the_campaign(self, monkeypatch):
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return make_report(found=True)

        monkeypatch.setattr(cli, "run_campaign", fake)
        cli.main(["--rescue-fraction", "0.5", "--livelock-ratio", "2.0",
                  "--min-commit-rate", "1.0", "--kinds", "hot_key"])
        assert seen["thresholds"] == FailureThresholds(
            rescue_fraction=0.5, livelock_ratio=2.0, min_commit_rate=1.0)
        assert seen["kinds"] == ["hot_key"]

    def test_unknown_kind_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["--kinds", "meteor_strike"])


def test_campaign_report_encodes_canonically():
    # the full report's counterexamples encode identically across runs —
    # the property the committed corpus relies on
    reports = [run_campaign(seed=2, budget=3, executor=StubExecutor())
               for _ in range(2)]
    encodings = [
        canonical_json([c.to_jsonable() for c in report.counterexamples])
        for report in reports
    ]
    assert encodings[0] == encodings[1]
