"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blank lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    total = (
        x
        + math.pi
    )
    return total


class C:
    """Class docstring."""

    label = """not a docstring,
but a string over two lines"""
'''


def test_counts_code_lines_of_a_synthetic_module():
    # import 1, def 1, the four-line statement 4, return 1, class 1, the two-line string 2
    assert code_lines.code_lines(SOURCE) == 10


def test_counts_every_module_of_a_checkout(tmp_path, capsys):
    package = tmp_path / "src" / "simplexgrad"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Package."""\n')
    (package / "mod.py").write_text(SOURCE)
    assert code_lines.count_checkout(tmp_path) == {"__init__.py": 0, "mod.py": 10}
    assert code_lines.main([str(tmp_path), str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "10", "10"]
