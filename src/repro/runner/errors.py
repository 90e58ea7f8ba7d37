"""Cell-identity error context for cells that run outside the caller.

A worker crash deep inside a multi-hour sweep must not surface as a bare
remote traceback with no indication of *which* cell died.  The dist worker
(:mod:`repro.dist.worker`), which runs every fanned-out cell, therefore
calls :func:`run_with_cell_context`, which re-raises any failure as a
:class:`CellExecutionError` naming the failing cell's full identity
(cell id, kind, label, offered load, seed, replicate) — enough to re-run
exactly that cell serially with
:func:`~repro.runner.cells.execute_run_spec` under a debugger.  The
coordinator names a cell with :func:`cell_error` when the failure happens
before the cell ran, e.g. when a worker cannot decode the task.

The error is deliberately flat (a message string plus the cell id): it must
survive pickling across process and network boundaries, where exception
causes and traceback objects do not.  The serial executor is left
unwrapped on purpose — there the original exception unwinds directly into
the caller's stack and is already debuggable.
"""

from __future__ import annotations

import traceback


class CellExecutionError(RuntimeError):
    """A cell of a sweep failed; the message names the cell's identity."""

    def __init__(self, message: str, cell_id: str = ""):
        super().__init__(message)
        self.cell_id = cell_id

    def __reduce__(self):
        # exceptions pickle through their constructor args; carry cell_id
        # explicitly so it survives process and network hops
        return (type(self), (self.args[0] if self.args else "", self.cell_id))


def describe_item(item) -> str:
    """A human-readable identity of one executor work item.

    :class:`~repro.runner.specs.RunSpec`-shaped items (anything with a
    ``cell_id``) are described by their cell coordinates; other items fall
    back to a truncated ``repr``.
    """
    cell_id = getattr(item, "cell_id", None)
    if cell_id is None:
        text = repr(item)
        return text if len(text) <= 200 else text[:197] + "..."
    details = []
    kind = getattr(item, "kind", "")
    if kind:
        details.append(f"kind={kind}")
    label = getattr(item, "label", "")
    if label:
        details.append(f"label={label!r}")
    params = getattr(item, "params", None)
    if params is not None:
        details.append(f"N={getattr(params, 'n_terminals', '?')}")
        details.append(f"seed={getattr(params, 'seed', '?')}")
    details.append(f"replicate={getattr(item, 'replicate', 0)}")
    return f"cell {cell_id!r} ({', '.join(details)})"


def cell_error(item, detail: str) -> CellExecutionError:
    """A :class:`CellExecutionError` saying that ``item`` failed with ``detail``."""
    return CellExecutionError(f"{describe_item(item)} failed: {detail}",
                              cell_id=str(getattr(item, "cell_id", "")))


def run_with_cell_context(function, item):
    """Run ``function(item)``, re-raising failures with the cell identity."""
    try:
        return function(item)
    except CellExecutionError:
        raise
    except Exception as exc:
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        raise cell_error(item, detail) from exc
