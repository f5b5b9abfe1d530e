"""The benchmark's workloads: inputs drawn from a seed, one pass, output checks.

A pass of a convergence workload is one ``simplexgrad convergence``
invocation through ``cli.main``, writing its CSV with ``--out``. A pass of
``sample-export`` builds two sample sets with the library and writes each
with ``SampleMatrix.to_csv``. Passes run in the worker process; checks run in
the launcher on the files a pass wrote, so they add nothing to the worker's
time or memory.

Checks on every seed: exit code, CSV structure (row count, counts and
``n_samples = prod(counts)``), and bound domination. At seed 0 a convergence
CSV is also compared field by field with the reference recorded in
``reference/`` (numbers within ``RTOL``/``ATOL``, text exactly), and byte
identity with it is reported as a separate flag. Sample CSVs are compared
on every seed with the documented construction, computed here without the
package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
# same slack the package allows between an error and a bound of zero
DOMINATION_SLACK = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Check:
    problems: list[str]
    byte_identical: bool | None  # None when there is no seed-0 reference to compare with


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def _compare_lines(got: str, want: str) -> str | None:
    """First field of ``got`` that differs from ``want``: numbers within tolerance, text exactly."""
    got_cells = [c.split(";") for c in got.split(",")]
    want_cells = [c.split(";") for c in want.split(",")]
    if [len(c) for c in got_cells] != [len(c) for c in want_cells]:
        return f"fields differ: {got!r} vs {want!r}"
    for g, w in zip((v for c in got_cells for v in c), (v for c in want_cells for v in c)):
        try:
            gf, wf = float(g), float(w)
        except ValueError:
            if g != w:
                return f"{g!r} != {w!r}"
            continue
        if not _close(gf, wf):
            return f"{g} differs from reference {w} beyond rtol={RTOL} atol={ATOL}"
    return None


@dataclass(frozen=True)
class ConvergenceWorkload:
    """One ``simplexgrad convergence`` configuration; the seed moves x0 off the anchor."""

    name: str
    field: str
    dim: int
    region: tuple[str, ...]
    schedule: str
    per_axis: tuple[int, ...]
    nodes: int

    def argv(self, seed: int, out: Path) -> list[str]:
        from simplexgrad.fields import get_field

        argv = ["convergence", "--field", self.field, *self.region, "--schedule", self.schedule]
        argv += ["--nodes", str(self.nodes), "--seed", str(seed), "--out", str(out)]
        if seed != 0:
            anchor = np.asarray(get_field(self.field).anchor, dtype=float)
            x0 = anchor + np.random.default_rng(seed).uniform(-0.25, 0.25, size=anchor.size)
            # one token, so argparse does not take a leading minus sign for an option
            argv.append("--x0=" + ",".join(repr(float(v)) for v in x0))
        return argv

    def run(self, seed: int, outdir: Path) -> tuple[int, list[str]]:
        from simplexgrad import cli

        out = outdir / f"{self.name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):  # the "wrote ..." line
            code = cli.main(self.argv(seed, out))
        return code, [out.name]

    def check(self, seed: int, exit_code: int, texts: dict[str, str]) -> Check:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        text = texts.get(f"{self.name}.csv")
        if text is None:
            return Check(problems + ["no CSV written"], None)
        try:
            problems += self._check_structure(seed, text)
        except (ValueError, IndexError, TypeError) as exc:
            problems.append(f"malformed CSV: {exc}")
        if seed != 0:
            return Check(problems, None)
        reference = (REFERENCE_DIR / f"{self.name}.csv").read_text(encoding="utf-8")
        got, want = text.split("\n"), reference.split("\n")
        if len(got) != len(want):
            problems.append(f"{len(got)} lines, reference has {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                diff = _compare_lines(g, w)
                if diff is not None:
                    problems.append(f"line {i + 1}: {diff}")
        return Check(problems, text == reference)

    def _check_structure(self, seed: int, text: str) -> list[str]:
        problems = []
        lines = text.split("\n")
        meta = dict(line.split(",", 1) for line in lines[:8])
        expected = {"schema": "convergence-v1", "field": self.field, "region": self.region[1],
                    "nodes": str(self.nodes), "seed": str(seed)}
        for key, value in expected.items():
            if meta.get(key) != value:
                problems.append(f"header {key}={meta.get(key)!r}, expected {value!r}")
        rows = [line.split(",") for line in lines[9:] if line]
        if len(rows) != len(self.per_axis):
            problems.append(f"{len(rows)} rows, expected {len(self.per_axis)}")
        for k, row in zip(self.per_axis, rows):
            index, counts, n_samples = row[:3]
            values = [float(v) for v in row[3:] if v]
            err, classical, centered, limit_bound, limit_error = (float(v) if v else None for v in row[4:])
            if counts != "x".join([str(k)] * self.dim) or int(n_samples) != k**self.dim:
                problems.append(f"row {index}: counts {counts}, n_samples {n_samples} for {k} per axis")
            if not all(math.isfinite(v) for v in values):
                problems.append(f"row {index}: non-finite value")
            if err > classical + DOMINATION_SLACK or (centered is not None and err > centered + DOMINATION_SLACK):
                problems.append(f"row {index}: gsg_error {err} exceeds a finite-sample bound")
            if limit_error > limit_bound + DOMINATION_SLACK:
                problems.append(f"row {index}: limit_error {limit_error} exceeds the limit bound")
        return problems


RECT_COUNTS = (256, 256)
BALL_COUNTS = (33, 33, 33)


@dataclass(frozen=True)
class SampleExportWorkload:
    """Library calls: a seeded arbitrary-point box sample and a 3-d polar ball grid, each written as CSV."""

    name: str = "sample-export"

    def run(self, seed: int, outdir: Path) -> tuple[int, list[str]]:
        from simplexgrad import regions

        box = regions.HyperrectRegion(x0=(0.0, 0.0), d=(1.0, 1.0), counts=RECT_COUNTS)
        ball = regions.BallRegion(x0=(0.0, 0.0, 0.0), r=1.0, counts=BALL_COUNTS)
        with open(outdir / "rect-arbitrary.csv", "w", encoding="utf-8", newline="\n") as f:
            regions.rect_arbitrary_sample(box, seed=seed).to_csv(out=f)
        with open(outdir / "ball-grid.csv", "w", encoding="utf-8", newline="\n") as f:
            regions.ball_grid_sample(ball).to_csv(out=f)
        return 0, ["rect-arbitrary.csv", "ball-grid.csv"]

    def check(self, seed: int, exit_code: int, texts: dict[str, str]) -> Check:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        for name, expected in (("rect-arbitrary.csv", self._rect_expected(seed)), ("ball-grid.csv", self._ball_expected())):
            if name not in texts:
                problems.append(f"{name} not written")
                continue
            try:
                problems += [f"{name}: {p}" for p in _check_sample_csv(texts[name], *expected)]
            except ValueError as exc:
                problems.append(f"{name}: malformed CSV: {exc}")
        if seed != 0:
            return Check(problems, None)
        digests = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        same = all(hashlib.sha256(texts.get(n, "").encode("utf-8")).hexdigest() == d for n, d in digests.items())
        return Check(problems, same)

    @staticmethod
    def _rect_expected(seed: int):
        # far corner of cell (j, z) minus offsets * h, offsets from default_rng(seed), j fastest
        n1, n2 = RECT_COUNTS
        z, j = np.indices((n2, n1)).reshape(2, -1) + 1
        idx = np.column_stack([j, z])
        h = 1.0 / np.array(RECT_COUNTS, dtype=float)
        offsets = np.random.default_rng(seed).random((2, idx.shape[0]))
        return "rect-arbitrary", idx, (idx * h).T - h[:, None] * offsets

    @staticmethod
    def _ball_expected():
        # radius y1/N1, azimuth 2 pi y2/N2, polar angle pi y3/N3; last index fastest
        idx = np.indices(BALL_COUNTS).reshape(3, -1).T + 1
        rho = idx[:, 0] / BALL_COUNTS[0]
        theta = 2.0 * math.pi * idx[:, 1] / BALL_COUNTS[1]
        phi = math.pi * idx[:, 2] / BALL_COUNTS[2]
        s = np.stack([rho * np.cos(phi), rho * np.sin(phi) * np.cos(theta), rho * np.sin(phi) * np.sin(theta)])
        return "ball-grid", idx, s


def _check_sample_csv(text: str, tag: str, indices: np.ndarray, directions: np.ndarray) -> list[str]:
    n, cols = directions.shape
    lines = text.split("\n", 3)
    want_head = ["n,N,tag", f"{n},{cols},{tag}", "col," + ",".join([f"i{k + 1}" for k in range(n)] + [f"s{k + 1}" for k in range(n)])]
    if lines[:3] != want_head:
        return [f"header {lines[:3]}, expected {want_head}"]
    data = np.loadtxt(io.StringIO(lines[3]), delimiter=",", ndmin=2)
    if data.shape != (cols, 1 + 2 * n):
        return [f"data shape {data.shape}, expected {(cols, 1 + 2 * n)}"]
    problems = []
    if not np.array_equal(data[:, 0], np.arange(1, cols + 1)):
        problems.append("column numbers are not 1..N")
    if not np.array_equal(data[:, 1 : 1 + n], indices):
        problems.append("cell indices differ from the lexicographic enumeration")
    got = data[:, 1 + n :].T
    bad = ~(np.abs(got - directions) <= ATOL + RTOL * np.abs(directions))
    if np.any(bad):
        j = int(np.flatnonzero(bad.any(axis=0))[0])
        problems.append(f"column {j + 1}: {got[:, j]} differs from {directions[:, j]} beyond rtol={RTOL} atol={ATOL}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        ConvergenceWorkload("rect-grid", "cubic2", 2, ("--region", "rect", "--sides", "1,1"),
                            "2^2..2^11", tuple(2**k for k in range(2, 12)), 64),
        ConvergenceWorkload("ball-polar", "cubic2", 2, ("--region", "ball", "--radius", "1"),
                            "2^2..2^11", tuple(2**k for k in range(2, 12)), 64),
        ConvergenceWorkload("ball-3d-limit", "affine3", 3, ("--region", "ball"),
                            "3,5,9,17,33,65", (3, 5, 9, 17, 33, 65), 128),
        SampleExportWorkload(),
    )
}
