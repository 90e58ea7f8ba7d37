"""Attribution of profiled time and calls to the layers of ``repro``.

Every module under ``src/repro`` belongs to exactly one layer.  The
profiler's self time of a function is charged to the layer of the module
that defines it; numpy ``Generator`` methods are charged to ``rng``, and
all remaining code outside the package (generator resumption, ``heapq``,
builtins) to ``python``.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

#: every layer a traced run reports, in report order
LAYERS = ("sim.engine", "sim.resources", "rng", "tp", "metrics", "cc", "core",
          "dist", "svc", "obs", "runner", "python")

#: module path under src/repro -> layer; a directory entry ("tp/") covers
#: every module of that directory without an entry of its own
MODULE_LAYERS = {
    "__init__.py": "runner",
    "canonical.py": "runner",
    "analytic/": "runner",
    "experiments/": "runner",
    # the fuzzer drives campaigns through the runner; no workload runs it
    "fuzz/": "runner",
    "runner/": "runner",
    "sim/__init__.py": "sim.engine",
    "sim/engine.py": "sim.engine",
    "sim/resources.py": "sim.resources",
    "sim/random_streams.py": "rng",
    "sim/stats.py": "metrics",
    "sim/trace.py": "obs",
    "tp/metrics.py": "metrics",
    "tp/": "tp",
    "cc/": "cc",
    "core/": "core",
    "dist/": "dist",
    "svc/": "svc",
    "obs/": "obs",
}

#: a cProfile function key: (filename, first line, function name)
FunctionKey = Tuple[str, int, str]


def module_layer(relpath: str) -> Optional[str]:
    """The layer of a module given by its POSIX path under ``src/repro``.

    Returns ``None`` for a module no entry covers.
    """
    if relpath in MODULE_LAYERS:
        return MODULE_LAYERS[relpath]
    directory, separator, _ = relpath.partition("/")
    if not separator:
        return None
    return MODULE_LAYERS.get(directory + "/")


class LayerMap:
    """Maps profiled functions to layers for one copy of the package.

    ``extra_files`` maps files outside the package to a layer (the draw
    frames of ``draws.py`` to ``rng``).
    """

    def __init__(self, package_dir, extra_files: Optional[Mapping[str, str]] = None):
        self._prefix = os.path.join(os.path.realpath(package_dir), "")
        self._extra = {os.path.realpath(path): layer
                       for path, layer in (extra_files or {}).items()}
        self._by_file: Dict[str, str] = {}

    def layer(self, key: FunctionKey) -> str:
        """The layer of one profiled function."""
        filename, _line, name = key
        if filename == "~":
            return "rng" if "numpy.random" in name else "python"
        layer = self._by_file.get(filename)
        if layer is None:
            layer = self._by_file[filename] = self._file_layer(filename)
        return layer

    def _file_layer(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if path in self._extra:
            return self._extra[path]
        if path.startswith(self._prefix):
            relpath = path[len(self._prefix):].replace(os.sep, "/")
            return module_layer(relpath) or "python"
        if f"numpy{os.sep}random{os.sep}" in path:
            return "rng"
        return "python"


def self_seconds(stats: Mapping, layers: LayerMap) -> Dict[str, float]:
    """Profiler self time per layer (from ``pstats.Stats.stats``), every layer present."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for key, (_primitive, _calls, self_time, _cumulative, _callers) in stats.items():
        totals[layers.layer(key)] += self_time
    return totals


def entry_calls(stats: Mapping, layers: LayerMap, layer: str,
                name: Optional[str] = None) -> int:
    """Calls into ``layer`` from code outside it, optionally of one function name.

    Counting only calls that cross into the layer keeps delegation inside
    it (a recording wrapper around a CC scheme, a stream helper drawing
    from its generator) from counting one request twice.
    """
    count = 0
    for key, (_primitive, _calls, _self, _cumulative, callers) in stats.items():
        if layers.layer(key) != layer or (name is not None and key[2] != name):
            continue
        for caller, caller_stats in callers.items():
            if layers.layer(caller) != layer:
                count += caller_stats[1]
    return count
