"""Tests of ``tools/count_code_lines.py``, the code-line count of ``src/repro``."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"

#: 11 code lines: the numbered ones
FIXTURE = '''"""Module docstring
on two lines."""

import os  # 1: a comment after code

# a comment line


def f(a,  # 2
      b):  # 3: a continuation line
    """Function docstring."""
    text = """not a
docstring

end"""  # 4-6, the blank line inside the string excluded
    total = a + \\
        b  # 7-8
    return text, total, os  # 9


class C:  # 10
    """Class docstring
    on three lines.
    """
    x = 1  # 11
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("count_code_lines", module)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_not_docstrings_comments_or_blanks():
    assert _load_tool().count_source(FIXTURE) == 11


def test_reports_each_package_and_a_total(tmp_path, capsys):
    package = tmp_path / "src" / "repro"
    (package / "core").mkdir(parents=True)
    (package / "__init__.py").write_text('"""Top."""\nVERSION = 1\n', encoding="utf-8")
    (package / "core" / "mod.py").write_text(FIXTURE, encoding="utf-8")
    assert _load_tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["(top)", "1"], ["core", "11"], ["total", "12"]]
