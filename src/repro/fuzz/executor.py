"""Running a fuzz campaign: generate → lower → execute → score → archive.

:func:`run_campaign` is the fuzzer's single entry point.  It is
deterministic end to end: the candidate stream is a pure function of
``(seed, budget, kinds)`` (:mod:`repro.fuzz.generator`), every lowered cell
seeds its own random streams from its spec (so serial and distributed
execution are bitwise identical — the runner's standing guarantee), and
the verdicts are pure functions of the metrics.  Two campaigns with the
same arguments therefore find the same counterexamples and archive
byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentScale
from repro.fuzz.adversaries import AdversarySpec
from repro.fuzz.corpus import Counterexample
from repro.fuzz.generator import generate_candidates
from repro.fuzz.oracle import FailureThresholds, Verdict, score_run
from repro.runner.cells import CellResult, execute_run_spec
from repro.runner.executor import make_executor
from repro.runner.specs import RunSpec


@dataclass
class FuzzReport:
    """Everything one campaign did, in candidate order."""

    seed: int
    budget: int
    #: (adversary, lowered cell) pairs, in generation order
    candidates: List[Tuple[AdversarySpec, RunSpec]] = field(default_factory=list)
    #: executed cell results, in candidate order
    results: List[CellResult] = field(default_factory=list)
    #: one verdict per candidate, in candidate order
    verdicts: List[Verdict] = field(default_factory=list)
    #: the failing candidates, ready for the corpus
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def found(self) -> int:
        """Number of counterexamples the campaign found."""
        return len(self.counterexamples)


def run_campaign(seed: int, budget: int,
                 scale: Optional[ExperimentScale] = None,
                 workers: int = 0,
                 thresholds: Optional[FailureThresholds] = None,
                 kinds: Optional[Sequence[str]] = None,
                 executor=None) -> FuzzReport:
    """Search ``budget`` adversarial candidates for controller failures.

    ``workers`` selects the executor exactly as
    :func:`repro.runner.executor.make_executor` does for sweeps: serial
    (0/1) or a local dist cluster, which the campaign closes.  A ready
    ``executor`` (any object with the runner's ``execute(function,
    items)`` interface) replaces that choice.  A
    :class:`~repro.svc.client.ServiceExecutor` routes the cells through a
    running sweep service (:mod:`repro.svc`): candidates any earlier
    campaign or sweep already simulated are served from the service's
    content-addressed cache — bit-identical to a fresh run, so verdicts
    and archived counterexamples are unchanged byte for byte.
    """
    scale = scale or ExperimentScale.smoke()
    thresholds = thresholds or FailureThresholds()
    adversaries = generate_candidates(seed, budget, kinds)
    cells = [adversary.lower(scale) for adversary in adversaries]
    owned_executor = None
    if executor is None:
        executor = owned_executor = make_executor(workers)
    try:
        results = executor.execute(execute_run_spec, cells)
    finally:
        if owned_executor is not None:
            owned_executor.close()
    report = FuzzReport(seed=seed, budget=budget,
                        candidates=list(zip(adversaries, cells)),
                        results=results)
    for adversary, cell, result in zip(adversaries, cells, results):
        verdict = score_run(cell, result.metrics, thresholds)
        report.verdicts.append(verdict)
        if verdict.failed:
            report.counterexamples.append(Counterexample(
                adversary=adversary,
                spec=cell,
                verdict=verdict,
                metrics=dict(result.metrics),
            ))
    return report
