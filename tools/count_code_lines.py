#!/usr/bin/env python
"""Count the code lines of each top-level package under ``src/repro``.

A code line is a non-blank line that is neither a comment nor part of a
docstring.  Lines are read off the token stream, so a statement that spans
several lines counts each of its lines, and so does a multi-line string
that is not a docstring.  A docstring is a string-literal statement that
opens a module, class or function body (the ``ast`` definition); all of its
lines are left out.

Run it on this checkout::

    python tools/count_code_lines.py

or on another one (a second clone, say, to compare against)::

    python tools/count_code_lines.py /path/to/checkout

It prints one ``<package> <lines>`` row per package, modules directly in
``src/repro`` under ``(top)``, and a ``total`` row.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set

#: tokens that carry no code of their own
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one module's source text."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            code.add(line)
    blank = {number for number, text in enumerate(source.splitlines(), 1)
             if not text.strip()}
    return len(code - docstring_lines(ast.parse(source)) - blank)


def count_tree(root: Path) -> Dict[str, int]:
    """Code lines per top-level package of ``root/src/repro``."""
    package_root = root / "src" / "repro"
    if not package_root.is_dir():
        raise FileNotFoundError(f"no src/repro under {root}")
    counts: Dict[str, int] = {}
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root).parts
        package = parts[0] if len(parts) > 1 else "(top)"
        lines = count_source(path.read_text(encoding="utf-8"))
        counts[package] = counts.get(package, 0) + lines
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's parent)")
    args = parser.parse_args(argv)
    try:
        counts = count_tree(args.root)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    width = max(len(name) for name in counts) if counts else 5
    for name, lines in sorted(counts.items()):
        print(f"{name:<{width}} {lines:>6}")
    print(f"{'total':<{width}} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
