"""Adversarial workload fuzzer: hunt configurations the controllers cannot rescue.

The paper's claim is that adaptive load control (IS/PA) rescues the system
from thrashing under *any* workload variation; every scenario the
repository tests by hand is a point probe of that claim.  This package
turns the probe into a search (the HISTEX/AWDIT discipline — generate the
hostile inputs, don't hand-pick them):

* :mod:`repro.fuzz.adversaries` — typed, picklable attack patterns that
  lower to ordinary :class:`~repro.runner.specs.RunSpec` cells;
* :mod:`repro.fuzz.generator` — a seeded deterministic candidate stream;
* :mod:`repro.fuzz.oracle` — executable failure predicates (rescue failure
  against the scheme-aware analytic optimum, displacement livelock,
  admission collapse);
* :mod:`repro.fuzz.executor` — the campaign loop over the runner's
  executors (serial, a local dist cluster, or a sweep service);
* :mod:`repro.fuzz.corpus` — counterexamples archived as replayable JSON
  regression fixtures (``tests/fuzz_corpus/``);
* :mod:`repro.fuzz.cli` — the ``repro-fuzz`` console entry point.
"""

from repro.fuzz.adversaries import (
    ADAPTIVE_CONTROLLERS,
    AdversarySpec,
    ArrivalBurstAdversary,
    ClassMixFlipAdversary,
    DisplacementSpikeAdversary,
    HotKeyAdversary,
    SizeSpikeAdversary,
    adversary_from_jsonable,
    adversary_kinds,
)
from repro.fuzz.corpus import (
    Counterexample,
    archive_counterexamples,
    canonical_json,
    corpus_paths,
    counterexample_from_jsonable,
    load_counterexample,
    replay_counterexample,
)
from repro.fuzz.executor import FuzzReport, run_campaign
from repro.fuzz.generator import generate_candidates
from repro.fuzz.oracle import FailureThresholds, Verdict, rescue_score, score_run

__all__ = [
    "ADAPTIVE_CONTROLLERS",
    "AdversarySpec",
    "ArrivalBurstAdversary",
    "ClassMixFlipAdversary",
    "DisplacementSpikeAdversary",
    "HotKeyAdversary",
    "SizeSpikeAdversary",
    "adversary_from_jsonable",
    "adversary_kinds",
    "Counterexample",
    "archive_counterexamples",
    "canonical_json",
    "corpus_paths",
    "counterexample_from_jsonable",
    "load_counterexample",
    "replay_counterexample",
    "FuzzReport",
    "run_campaign",
    "generate_candidates",
    "FailureThresholds",
    "Verdict",
    "rescue_score",
    "score_run",
]
