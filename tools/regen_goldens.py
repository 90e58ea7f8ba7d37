#!/usr/bin/env python
"""Regenerate the golden trajectory fixtures under ``tests/golden/``.

One JSON file per registry scenario (thrashing, fig12_stationary,
fig13_is_jump, fig14_pa_jump, sinusoid, mixed_classes, cc_compare,
displacement_policies, deadlock_resolution, isolation_tradeoff,
probe_calibration, open_diurnal, flash_crowd), each produced by running every
cell of the scenario's smoke-scale sweep serially with the ``trace``
observer added.  A golden file pins, per cell:

* the summary ``metrics`` dict exactly as the runner reports it,
* the length and a blake2b digest of the canonical serialisation of the
  full per-transaction lifecycle event log
  ``[time, kind, txn_id, detail]`` (submit/admit/shed/commit/abort/depart),
* the first ``EVENTS_HEAD`` log entries verbatim, so a digest mismatch can
  be narrowed down to the first diverging event by a human (or by
  regenerating into a scratch directory and diffing), and
* for cells that select the ``aborts_by_reason`` observer, the name of the
  scheme-aware analytic reference (``model_reference``: TayModel for locking-family
  schemes, OccModel for optimistic ones) — absent from cells that never
  reported one, so older fixtures keep their exact byte content.

``tests/golden/test_golden_trajectories.py`` asserts that re-running the
cells reproduces these files *bitwise* (canonical JSON string equality).
JSON serialises floats with ``repr``, which round-trips IEEE-754 doubles
exactly, so string equality of the canonical form — and digest equality
over it — is bit-for-bit equality of every timestamp and metric.  The
digest covers the *entire* event log (tens of thousands of events per
tracking cell); only the stored head is truncated, to keep the checked-in
fixtures small.

The goldens define the behavioral contract of the simulation core.  They
were generated once, BEFORE the hot-path rewrite of the discrete-event
engine, and must never be regenerated to make a failing optimisation pass:
a mismatch means the optimisation changed trajectories and must be fixed.
Legitimate regeneration (an intentional semantic change to the model) is::

    PYTHONPATH=src python tools/regen_goldens.py

and must be called out explicitly in the change description.

When a PR merely *adds* a scenario, regenerate that fixture alone with::

    PYTHONPATH=src python tools/regen_goldens.py --only <scenario>

``--only`` (repeatable) refuses to touch any other file, so the
pre-existing fixtures provably stay byte-identical — ``git status`` after
the run must show exactly one new file.  Running without ``--only``
rewrites every fixture and is reserved for intentional, documented
semantic changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.canonical import canonical_digest, canonical_json, sanitize  # noqa: E402, F401
from repro.experiments.config import ExperimentScale  # noqa: E402
from repro.runner.cells import execute_run_spec  # noqa: E402
from repro.runner.registry import available_scenarios, build_sweep  # noqa: E402
from repro.runner.specs import SweepSpec  # noqa: E402

#: the scenarios pinned by the golden harness (== the full registry)
GOLDEN_SCENARIOS = ("thrashing", "fig12_stationary", "fig13_is_jump",
                    "fig14_pa_jump", "sinusoid", "mixed_classes",
                    "cc_compare", "displacement_policies",
                    "deadlock_resolution", "isolation_tradeoff",
                    "probe_calibration", "open_diurnal", "flash_crowd")

#: bump when the golden file structure (not the trajectories) changes
GOLDEN_FORMAT = 1

#: trajectory events stored verbatim per cell (the digest covers all of them)
EVENTS_HEAD = 100


# sanitize and canonical_json are re-exported from repro.canonical (the
# repository's single canonical encoder, shared with the archive writer,
# the fuzz corpus and the sweep service's cache keys); the golden tests
# import them from this module, which keeps this tool the single source of
# truth for *capture* while the byte encoding lives in one place.


def events_digest(events) -> str:
    """Blake2b-256 hex digest of the canonical serialisation of a full log."""
    return canonical_digest([list(event) for event in events])


def traced_sweep(name: str) -> SweepSpec:
    """The scenario's smoke-scale sweep with the ``trace`` observer on every cell.

    Tracing observes without perturbing, so the traced cells report exactly
    the metrics of the untraced ones, plus their lifecycle logs.
    """
    spec = build_sweep(name, scale=ExperimentScale.smoke())
    return SweepSpec(name=spec.name, cells=tuple(
        dataclasses.replace(cell, observers=cell.observers + ("trace",)) for cell in spec.cells))


def capture_scenario(name: str) -> dict:
    """Run every cell of ``name`` at smoke scale, tracing trajectories."""
    cells = []
    for cell in traced_sweep(name).cells:
        result = execute_run_spec(cell)
        captured = {
            "cell_id": result.cell_id,
            "kind": result.kind,
            "label": result.label,
            "replicate": result.replicate,
            "metrics": dict(result.metrics),
            "n_events": len(result.trace),
            "events_digest": events_digest(result.trace),
            "events_head": [list(event) for event in result.trace[:EVENTS_HEAD]],
        }
        if result.model_reference:
            # only aborts_by_reason cells report one; older fixtures (captured
            # before the scheme-aware references existed) stay byte-identical
            captured["model_reference"] = result.model_reference
        cells.append(captured)
    return {
        "format": GOLDEN_FORMAT,
        "scenario": name,
        "scale": "smoke",
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "tests" / "golden",
                        help="output directory (default: tests/golden)")
    parser.add_argument("--only", action="append", metavar="SCENARIO",
                        help="regenerate exactly this scenario's fixture and "
                             "touch no other file (repeatable); the safe "
                             "mode for PRs that only ADD a scenario.  "
                             "Without it, EVERY fixture is rewritten — "
                             "reserved for documented semantic changes")
    args = parser.parse_args(argv)

    selected = args.only or list(GOLDEN_SCENARIOS)

    known = set(available_scenarios())
    for name in selected:
        if name not in known:
            parser.error(f"unknown scenario {name!r}; available: {sorted(known)}")

    args.out.mkdir(parents=True, exist_ok=True)
    for name in selected:
        payload = capture_scenario(name)
        path = args.out / f"{name}.json"
        path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
        events = sum(cell["n_events"] for cell in payload["cells"])
        print(f"{path}: {len(payload['cells'])} cells, {events} trajectory events, "
              f"{path.stat().st_size / 1024:.0f} KiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
