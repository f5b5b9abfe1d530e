"""Count the code lines of the package in one or more checkouts.

Usage::

    python tools/code_lines.py ROOT [ROOT ...]

For each ROOT (a checkout of this repository) the script counts the code
lines of every module under ``src/simplexgrad``: the physical lines that
hold a token of code, so docstrings (found with ``ast``), comments and
blank lines are left out, and a statement over several lines counts each
of them. It prints one row per module, one column per checkout, then the
total. A ROOT without ``src/simplexgrad`` (such as the package directory
itself) is an error: one line on stderr, exit 2.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "simplexgrad"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the module, class and function docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Physical lines of ``source`` holding code, without docstrings, comments and blank lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_checkout(root: Path) -> dict[str, int]:
    """Code lines of each module under ``root/src/simplexgrad``, keyed by its path there."""
    package = root / PACKAGE
    return {str(p.relative_to(package)): code_lines(p.read_text()) for p in sorted(package.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", type=Path, nargs="+", help="checkouts to count")
    args = parser.parse_args(argv)
    for root in args.roots:
        if not (root / PACKAGE).is_dir():
            print(f"error: {root} has no {PACKAGE}; give checkout roots, not the package", file=sys.stderr)
            return 2
    tables = [count_checkout(root) for root in args.roots]
    for table in tables:
        table["total"] = sum(table.values())
    modules = sorted(set().union(*tables) - {"total"}) + ["total"]
    rows = [["module", *map(str, args.roots)]]
    rows += [[m] + [str(t[m]) if m in t else "-" for t in tables] for m in modules]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
