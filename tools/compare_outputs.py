"""Compare the CLI outputs of two checkouts byte for byte.

Usage::

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. For each, the script
runs the three ``convergence`` commands of the README, six more (a 3-d
ball, an arbitrary rect sample of one block a row, the same sample at
128^2..512^2, of 1, 4 and 16 blocks a row, a 2-d ball with odd and even
counts, a thin box whose last rows take the estimator's SVD route, and a
3-d box whose limit is summed in 16 parts), the
three convergence workloads of the benchmark (``perfbench/workloads.py``) at
seed 0 and every ``reproduce <id> --out`` example, each as ``python -m
simplexgrad.cli``, plus one in-process command (``python -c``) that runs
the README's rect and ball configs at another x0 and then at the anchor,
in one process, and writes the second CSVs: so each checkout's stencil
table is warm for them, and its warm path is compared too. That is 18
commands in all, each with that checkout's ``src/`` on ``PYTHONPATH`` and
a fresh temporary directory as the working directory. It compares the exit
codes, stdout (with the temporary directory masked) and every written file
byte for byte, prints one line per command, and exits 1 if anything
differs (0 otherwise). For a stdout or file that differs, the line also
gives the largest relative difference over its numeric fields and names the
text fields that differ (see ``field_differences``).
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPRODUCE_IDS = (
    "ball-grid-matrix",
    "ball-limit-quadratic",
    "rect-arbitrary-matrix",
    "rect-grid-matrix",
    "rect-limit-quadratic",
)

# the README's rect and ball configs, run at x0 = (0.3, 0.9) and then at the anchor in one process;
# the second run of each finds its sample geometries in the stencil table, and its CSV is written
WARM_README = """
import sys
from pathlib import Path
from simplexgrad.experiments import ExperimentConfig, convergence
out = Path(sys.argv[1])
out.mkdir(parents=True)
rect = dict(region="rect", sides=(1.0, 1.0), schedule=tuple((2**k,) * 2 for k in range(2, 11)))
ball = dict(region="ball", radius=1.0, schedule=tuple((2**k,) * 2 for k in range(2, 8)))
for name, kind in (("rect", rect), ("ball", ball)):
    for x0 in ((0.3, 0.9), None):
        text = convergence(ExperimentConfig(field_id="cubic2", x0=x0, nodes=64, seed=0, **kind)).to_csv()
    (out / f"{name}-warm.csv").write_text(text, encoding="utf-8", newline="\\n")
"""

CLI = ["-m", "simplexgrad.cli"]

# (label, argv after ``python``); "{out}" is the run's output directory
COMMANDS = [(label, CLI + argv) for label, argv in [
    ("convergence rect", ["convergence", "--field", "cubic2", "--region", "rect", "--sides", "1,1",
                          "--schedule", "2^2..2^10", "--nodes", "64", "--seed", "0", "--out", "{out}/rect.csv"]),
    ("convergence ball", ["convergence", "--field", "cubic2", "--region", "ball", "--radius", "1.0",
                          "--schedule", "2^2..2^7", "--nodes", "64", "--seed", "0", "--out", "{out}/ball.csv"]),
    ("convergence x0", ["convergence", "--field", "quad2", "--region", "rect", "--x0=-0.5,1", "--schedule", "4,8"]),
    # beyond the README: the 3-d limit with its polar angles, the arbitrary sample in one block a row and in several,
    # odd and even ball counts, and a thin box (exit 1: its roundoff exceeds the zero bounds of an affine field)
    ("convergence ball 3-d", ["convergence", "--field", "affine3", "--region", "ball", "--schedule", "3,5,9",
                              "--nodes", "32", "--out", "{out}/ball3.csv"]),
    ("convergence rect arbitrary", ["convergence", "--field", "cubic2", "--region", "rect", "--sample", "arbitrary",
                                    "--seed", "7", "--schedule", "4,8,16", "--nodes", "32", "--out", "{out}/arb.csv"]),
    ("convergence rect arbitrary blocks", ["convergence", "--field", "cubic2", "--region", "rect", "--sample",
                                           "arbitrary", "--seed", "7", "--schedule", "2^7..2^9", "--nodes", "32",
                                           "--out", "{out}/arb-blocks.csv"]),
    ("convergence ball mirrored", ["convergence", "--field", "cubic2", "--region", "ball", "--schedule", "3,4,6",
                                   "--nodes", "32", "--out", "{out}/mirrored.csv"]),
    ("convergence thin box", ["convergence", "--field", "affine2", "--region", "rect", "--sides", "1,1e-11",
                              "--schedule", "2^2..2^9", "--nodes", "16", "--out", "{out}/thin.csv"]),
    # a box limit of 16 parts (64^3 nodes, four x_1 slices of 4,096 a part); every other box limit is one part
    ("convergence box limit parts", ["convergence", "--field", "affine3", "--region", "rect", "--schedule", "2,3,5",
                                     "--nodes", "64", "--out", "{out}/box-parts.csv"]),
    # the benchmark's convergence workloads at seed 0 (perfbench/workloads.py)
    ("convergence rect-grid", ["convergence", "--field", "cubic2", "--region", "rect", "--sides", "1,1",
                               "--schedule", "2^2..2^11", "--nodes", "64", "--seed", "0",
                               "--out", "{out}/rect-grid.csv"]),
    ("convergence ball-polar", ["convergence", "--field", "cubic2", "--region", "ball", "--radius", "1",
                                "--schedule", "2^2..2^11", "--nodes", "64", "--seed", "0",
                                "--out", "{out}/ball-polar.csv"]),
    ("convergence ball-3d-limit", ["convergence", "--field", "affine3", "--region", "ball",
                                   "--schedule", "3,5,9,17,33,65", "--nodes", "128", "--seed", "0",
                                   "--out", "{out}/ball-3d-limit.csv"]),
] + [(f"reproduce {rid}", ["reproduce", rid, "--out", "{out}/" + rid]) for rid in REPRODUCE_IDS]] + [
    ("in-process warm README configs", ["-c", WARM_README, "{out}"]),
]

MASK = "<out>"


def run(checkout: Path, argv: list[str]) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, masked stdout and the files written (relative path -> bytes) of one command."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = [a.replace("{out}", str(out)) for a in argv]
        proc = subprocess.run([sys.executable, *args], cwd=tmp, env=env, capture_output=True, text=True)
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return proc.returncode, proc.stdout.replace(str(out), MASK), files


def _cells(line: str) -> list[tuple[str | None, list[str]]]:
    """A line's cells (comma-separated, else whitespace-separated), each as (key, values split at ';').

    A ``key=value`` cell is named by its key; brackets around a value are dropped.
    """
    cells = []
    for cell in line.split(",") if "," in line else line.split():
        key, _, value = cell.rpartition("=")
        cells.append((key or None, [t.strip("[]()") for t in value.split(";")]))
    return cells


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def field_differences(a: str, b: str) -> str:
    """The largest relative difference over the numeric fields of two texts, and the text fields that differ.

    Lines are paired in order. A field is named by its line and by its CSV
    column when the last line without a number (the header) has as many
    cells as its line, by the key of a ``key,value`` line or a ``key=value``
    cell, and otherwise by its cell number. A number's relative difference
    is ``|x - y| / max(|x|, |y|)`` (inf when either is not finite); a field
    that differs and is not a number on both sides, or a line whose cells
    do not pair up, is a text difference.
    """
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines != {len(lines_b)}"
    largest, largest_at, texts, header = 0.0, None, [], None
    for i, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        cells_a, cells_b = _cells(line_a), _cells(line_b)
        numbers = [_number(t) for _, values in cells_a for t in values]
        if all(x is None for x in numbers):
            header = [";".join(values) for _, values in cells_a]
        if len(cells_a) != len(cells_b):
            texts.append(f"line {i}")
            continue
        for j, ((key, values_a), (_, values_b)) in enumerate(zip(cells_a, cells_b)):
            if key is not None:
                name = key
            elif header is not None and len(header) == len(cells_a) and numbers[0] is not None:
                name = header[j]
            elif len(cells_a) == 2 and j == 1:
                name = ";".join(cells_a[0][1])
            else:
                name = f"cell {j + 1}"
            name = f"{name} (line {i})"
            if len(values_a) != len(values_b):
                texts.append(name)
                continue
            for x, y in zip(values_a, values_b):
                if x == y:
                    continue
                fx, fy = _number(x), _number(y)
                if fx is None or fy is None:
                    texts.append(name)
                    continue
                if fx == fy:
                    rel = 0.0  # the same number written differently, e.g. 0.0 and -0.0
                elif math.isfinite(fx) and math.isfinite(fy):
                    rel = abs(fx - fy) / max(abs(fx), abs(fy))
                else:
                    rel = math.inf
                if largest_at is None or rel > largest:
                    largest, largest_at = rel, name
    found = f"largest relative difference {largest:.3g} in {largest_at}" if largest_at else "no number differs"
    names = list(dict.fromkeys(texts))
    return f"{found}; " + (f"text differs in {', '.join(names)}" if names else "no text field differs")


def differences(parent, change) -> list[str]:
    (code_a, stdout_a, files_a), (code_b, stdout_b, files_b) = parent, change
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit {code_a} != {code_b}")
    if stdout_a != stdout_b:
        diffs.append(f"stdout differs ({field_differences(stdout_a, stdout_b)})")
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            diffs.append(f"{name} written by one side only")
        elif files_a[name] != files_b[name]:
            text_a, text_b = (f[name].decode("utf-8", "replace") for f in (files_a, files_b))
            diffs.append(f"{name} differs ({field_differences(text_a, text_b)})")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    failed = False
    for label, command in COMMANDS:
        parent, change = run(args.parent, command), run(args.change, command)
        diffs = differences(parent, change)
        failed |= bool(diffs)
        detail = "; ".join(diffs) if diffs else f"same (exit {change[0]}, {len(change[2])} files)"
        print(f"{'DIFF' if diffs else 'SAME'} {label}: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
