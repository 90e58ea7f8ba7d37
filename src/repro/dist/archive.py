"""Versioned JSON archives of replicated sweep runs (mean ± CI tables).

The paper's figures are distributions, not points: the ROADMAP's archival
item asks for replicated registry runs (``replicates >= 10`` at paper
scale) distilled into artifacts that outlive the run.  An archive is one
JSON file per (scenario, scale, replicates) combination:

* ``format`` — the archive format version (:data:`ARCHIVE_FORMAT`);
  :func:`load_archive` refuses versions it does not understand, so a
  format change can never be silently misread;
* run coordinates — scenario name, scale preset, replicates, confidence
  level, cell count;
* one entry per cell with every metric's replicate aggregate: ``mean``,
  sample ``std``, ``ci_half_width``/``ci_lower``/``ci_upper`` and the
  observation ``count``.

Archives contain only aggregate statistics (no trajectories), so even a
paper-scale run with dozens of cells is a few tens of kilobytes.  The
serialisation is deterministic (sorted keys, tagged non-finite floats, no
timestamps): archiving the same run twice produces byte-identical files,
which makes artifacts diffable across commits.

:func:`archive_sweep` is the one-call entry point (used by the
``repro-dist-coordinator --archive`` flag and directly scriptable)::

    from repro.dist.archive import archive_sweep
    path = archive_sweep("fig12_stationary", out_dir="artifacts",
                         scale="paper", replicates=10, workers=4)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.canonical import sanitize as _sanitize
from repro.experiments.config import scale_preset

#: bump when the artifact structure changes; load_archive enforces it
ARCHIVE_FORMAT = 1

#: (metric key, column header) pairs of :func:`format_archive_table`
DEFAULT_TABLE_COLUMNS: Sequence[Tuple[str, str]] = (
    ("throughput", "T [txn/s]"),
    ("mean_response_time", "R [s]"),
    ("restart_ratio", "restarts/commit"),
)


# non-finite floats are tagged by repro.canonical.sanitize — the exact
# encoding the golden-trajectory fixtures and the fuzz corpus use, so the
# three artifact families can never drift apart (pinned byte-for-byte by
# tests/svc/test_canonical.py)


def build_archive(result, *, scenario: str, scale_name: str,
                  confidence: float = 0.95) -> dict:
    """Condense a :class:`~repro.runner.api.SweepResult` into archive form."""
    cells = []
    for aggregate in result.aggregates:
        metrics = {}
        for name, summary in aggregate.metrics.items():
            metrics[name] = {
                "mean": summary.mean,
                "std": summary.std,
                "ci_half_width": summary.ci_half_width,
                "ci_lower": summary.lower,
                "ci_upper": summary.upper,
                "count": summary.count,
                "confidence": summary.confidence,
            }
        cells.append({
            "cell_id": aggregate.cell_id,
            "kind": aggregate.kind,
            "label": aggregate.label,
            "replicates": aggregate.count,
            "metrics": metrics,
        })
    return _sanitize({
        "format": ARCHIVE_FORMAT,
        "scenario": scenario,
        "scale": scale_name,
        "replicates": result.replicates,
        "confidence": confidence,
        "n_cells": len(cells),
        "cells": cells,
    })


def archive_filename(scenario: str, scale_name: str, replicates: int) -> str:
    """Canonical artifact name: scenario, scale, replicates, format version."""
    return f"{scenario}__{scale_name}__r{replicates}__v{ARCHIVE_FORMAT}.json"


def write_archive(archive: dict, out_dir) -> Path:
    """Write one archive artifact; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / archive_filename(archive["scenario"], archive["scale"],
                                      archive["replicates"])
    text = json.dumps(archive, sort_keys=True, indent=1, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def load_archive(path) -> dict:
    """Read one artifact back, enforcing the format version."""
    archive = json.loads(Path(path).read_text(encoding="utf-8"))
    version = archive.get("format")
    if version != ARCHIVE_FORMAT:
        raise ValueError(
            f"{path}: archive format {version!r} is not supported "
            f"(this code reads format {ARCHIVE_FORMAT})"
        )
    return archive


def format_archive_table(archive: dict,
                         columns: Optional[Sequence[Tuple[str, str]]] = None,
                         float_format: str = "{:.3f}") -> str:
    """Render an archive as the mean ± CI table its run would have printed."""
    from repro.experiments.report import format_table

    if columns is None:
        columns = DEFAULT_TABLE_COLUMNS
    headers = ["cell", "n"] + [header for _key, header in columns]
    rows = []
    for cell in archive["cells"]:
        row = [cell["cell_id"], cell["replicates"]]
        for key, _header in columns:
            summary = cell["metrics"].get(key)
            if summary is None or not isinstance(summary["mean"], (int, float)):
                row.append("-")
                continue
            mean_text = float_format.format(summary["mean"])
            half_width = summary["ci_half_width"]
            if summary["count"] > 1 and isinstance(half_width, (int, float)) \
                    and half_width > 0:
                row.append(f"{mean_text} ± {float_format.format(half_width)}")
            else:
                row.append(mean_text)
        rows.append(row)
    return format_table(headers, rows, float_format=float_format)


def archive_sweep(scenario: str, *, out_dir, scale: str = "paper",
                  replicates: int = 10, workers: int = 0, executor=None,
                  confidence: float = 0.95, base_params=None) -> Path:
    """Run a replicated registry sweep and archive it; returns the path.

    ``scale`` is a preset name (``smoke``/``benchmark``/``paper``; the
    ROADMAP's paper-scale default).  Execution is selected exactly as in
    :func:`~repro.runner.api.run_sweep`: in-process (``workers=0``), a
    local dist cluster (``workers=N``), or any ready ``executor`` — e.g. a
    :class:`~repro.dist.coordinator.DistributedExecutor` that networked
    workers join.
    """
    from repro.runner.api import run_sweep

    result = run_sweep(scenario, scale=scale_preset(scale), replicates=replicates,
                       workers=workers, executor=executor,
                       confidence=confidence, base_params=base_params)
    archive = build_archive(result, scenario=scenario, scale_name=scale,
                            confidence=confidence)
    return write_archive(archive, out_dir)
