"""The import direction between the runner and the experiment layer.

``repro.experiments`` runs single cells; ``repro.runner`` builds grids of
them and runs those.  The runner imports the experiment layer and never the
other way round, so both packages import what they use at module level and
no function hides an import cycle.  The source is parsed, not imported, so
an import under ``TYPE_CHECKING`` or inside a function counts as well.
Likewise ``repro.svc`` wraps ``repro.dist`` and never the other way round.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the one function-local import left in the two packages, as (file,
#: function, module): the runner <-> dist cycle, which is a separate one
ALLOWED_LOCAL_IMPORTS = {("repro/runner/executor.py", "make_executor", "repro.dist.coordinator")}


def sources(package):
    return sorted((SRC / "repro" / package).rglob("*.py"))


def imported_modules(node, package):
    """The absolute names an import statement binds (``set()`` for other nodes).

    ``from a.b import c`` yields ``a.b`` and ``a.b.c``; ``package`` resolves
    relative imports.
    """
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parts = parts[:len(parts) - node.level + 1]
        base = ".".join(parts + ([node.module] if node.module else []))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def in_package(name, package):
    return name == package or name.startswith(package + ".")


def imports_of(package, banned):
    """``file:line`` of every import of ``banned`` in ``repro.<package>``."""
    offenders = []
    for path in sources(package):
        for node in ast.walk(ast.parse(path.read_text())):
            names = imported_modules(node, f"repro.{package}")
            if any(in_package(name, banned) for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return offenders


def test_the_experiment_layer_never_imports_the_runner():
    assert imports_of("experiments", "repro.runner") == []


def test_no_function_of_the_two_packages_imports_a_repro_module():
    offenders = set()
    for package in ("runner", "experiments"):
        for path in sources(package):
            relative = path.relative_to(SRC).as_posix()
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    names = imported_modules(node, f"repro.{package}")
                    if not any(in_package(name, "repro") for name in names):
                        continue
                    if (relative, function.name, getattr(node, "module", None)) \
                            not in ALLOWED_LOCAL_IMPORTS:
                        offenders.add(f"{relative}:{node.lineno}")
    assert sorted(offenders) == []


def test_the_dist_package_never_imports_the_service():
    # the coordinator writes the runner's results document
    assert imports_of("dist", "repro.svc") == []
