"""Pinned regression: every archived counterexample replays bit-identically.

``tests/fuzz_corpus/`` holds the counterexamples committed from calibrated
fuzz campaigns (see docs/fuzzing.md for the pinning policy).  Each document
carries the full lowered RunSpec and the metrics the failing run produced;
replaying the cell must reproduce those metrics *exactly* — serially and
over two local dist workers — so a found controller failure can never
silently disappear or change shape.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import (
    canonical_json,
    corpus_paths,
    load_counterexample,
    replay_counterexample,
)
from repro.fuzz.oracle import score_run
from repro.runner.cells import execute_run_spec
from repro.runner.executor import make_executor

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"

CORPUS = corpus_paths(CORPUS_DIR)


def test_the_committed_corpus_is_not_empty():
    # the fuzzer's whole point: at least one counterexample is pinned
    assert CORPUS, f"no archived counterexamples under {CORPUS_DIR}"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
class TestReplay:
    def test_archived_verdict_is_a_failure(self, path):
        counterexample = load_counterexample(path)
        assert counterexample.verdict.failed
        assert counterexample.verdict.reasons

    def test_file_is_in_canonical_form(self, path):
        import json

        data = json.loads(path.read_text(encoding="utf-8"))
        assert canonical_json(data) + "\n" == path.read_text(encoding="utf-8")
        assert path.name == (f"{data['adversary']['kind']}__"
                             f"{load_counterexample(path).adversary.fingerprint()}.json")

    def test_serial_replay_is_bit_identical(self, path):
        counterexample = load_counterexample(path)
        archived, fresh = replay_counterexample(counterexample)
        assert fresh == archived

    def test_parallel_replay_is_bit_identical(self, path):
        counterexample = load_counterexample(path)
        executor = make_executor(2)
        try:
            (result,) = executor.execute(execute_run_spec, [counterexample.spec])
        finally:
            executor.close()
        assert dict(result.metrics) == dict(counterexample.metrics)

    def test_rescoring_reproduces_the_archived_verdict(self, path):
        counterexample = load_counterexample(path)
        verdict = score_run(counterexample.spec, counterexample.metrics)
        assert verdict == counterexample.verdict
