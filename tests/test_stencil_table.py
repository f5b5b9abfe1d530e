"""The stencil table: grid samples of one geometry share the radius and S S^T that a walk summed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexgrad import regions
from simplexgrad.bounds import centered_bound, classical_bound
from simplexgrad.experiments import ExperimentConfig, antipodal_half, convergence
from simplexgrad.fields import get_field
from simplexgrad.gsg import EvaluationError, ScalarField, simplex_gradient
from simplexgrad.regions import BallRegion, HyperrectRegion, SampleMatrix, ball_grid_sample, rect_grid_sample

SRC = Path(__file__).resolve().parents[1] / "src"

# (field, region kind, extent, schedule, nodes): 256^2 columns are four blocks, 17^3 one
WARM_CONFIGS = {
    "rect": ("cubic2", "rect", {"sides": (1.0, 1.0)}, ((4, 4), (64, 64), (256, 256)), 16),
    "ball-2d": ("cubic2", "ball", {"radius": 1.0}, ((4, 4), (64, 64), (256, 256)), 16),
    "ball-3d": ("affine3", "ball", {"radius": 1.0}, ((3, 3, 3), (9, 9, 9), (17, 17, 17)), 16),
}
WARM_X0 = {"rect": (0.3, 0.9), "ball-2d": (0.3, 0.9), "ball-3d": (0.1, -0.2, 0.3)}
X0 = {"rect": (1.2, 0.7), "ball-2d": (1.2, 0.7), "ball-3d": (0.5, 0.25, -0.5)}


def _config(name: str, x0) -> ExperimentConfig:
    field, region, extent, schedule, nodes = WARM_CONFIGS[name]
    return ExperimentConfig(field_id=field, region=region, schedule=schedule, x0=x0, nodes=nodes, **extent)


class _Counting:
    """Counts the calls of one function that the walk looks up at call time."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class _Recording(dict):
    """A stencil table that records every read and write."""

    def __init__(self):
        super().__init__()
        self.touched = []

    def get(self, key, default=None):
        self.touched.append(("get", key))
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.touched.append(("set", key))
        super().__setitem__(key, value)


def _fills(sample: SampleMatrix) -> list:
    fills, block = [], sample._block
    sample._block = lambda lo, hi, buffer=None: fills.append((lo, hi)) or block(lo, hi, buffer)
    return fills


def test_a_warm_call_at_another_x0_leaves_the_csv_bytes_of_a_fresh_process():
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH, *WARM_CONFIGS],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split("\f")
    for name, want in zip(WARM_CONFIGS, fresh):
        convergence(_config(name, WARM_X0[name]))
        assert regions._STENCILS  # the warm call entered its geometries
        assert convergence(_config(name, X0[name])).to_csv() == want, name


_FRESH = f"""
import sys
from simplexgrad.experiments import ExperimentConfig, convergence
WARM_CONFIGS, X0 = {WARM_CONFIGS!r}, {X0!r}
texts = []
for name in sys.argv[1:]:
    field, region, extent, schedule, nodes = WARM_CONFIGS[name]
    config = ExperimentConfig(field_id=field, region=region, schedule=schedule, x0=X0[name], nodes=nodes, **extent)
    texts.append(convergence(config).to_csv())
sys.stdout.write("\\f".join(texts))
"""


@pytest.mark.parametrize(
    "build, first, second",
    [
        (rect_grid_sample, HyperrectRegion((0.0, 0.0), (1.0, 2.0), (40, 30)), HyperrectRegion((3.0, -1.0), (1.0, 2.0), (40, 30))),
        (ball_grid_sample, BallRegion((0.0, 0.0, 0.0), 1.5, (6, 8, 5)), BallRegion((1.0, 2.0, 3.0), 1.5, (6, 8, 5))),
    ],
    ids=["rect", "ball"],
)
def test_a_hit_sums_nothing_and_a_bound_read_first_fills_no_block(build, first, second, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 100)
    walked = build(first)
    radius, gram = walked.radius, walked.gram_spectrum[0]
    assert not gram.flags.writeable
    einsum = _Counting(np.einsum)
    monkeypatch.setattr(np, "einsum", einsum)
    sample = build(second)  # another x0: the same geometry
    assert sample._sums[1] is gram  # looked up when built
    fills = _fills(sample)
    classical_bound(sample, 1.0)
    assert fills == [] and sample._sums[1] is gram and sample.radius == radius
    field = ScalarField(sample.dim, lambda x: np.sin(x).sum(axis=1))
    simplex_gradient(field, second.x0, sample)
    assert len(fills) == len(set(fills)) > 1  # the estimate's walk fills each block once
    assert einsum.calls == 0 and sample.gram_spectrum[0] is gram


def test_a_changed_block_size_misses(monkeypatch):
    region = HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8))
    first = rect_grid_sample(region)
    first.radius
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 10)
    sample = rect_grid_sample(region)
    fills = _fills(sample)
    sample.radius
    assert fills == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    assert sample._sums[1] is not first._sums[1] and len(regions._STENCILS) == 2


@pytest.mark.parametrize(
    "build, region, extent",
    [
        (rect_grid_sample, HyperrectRegion((0.0, 0.0), (0.7, 2.3), (8, 5)), (0.7, 2.3)),
        (ball_grid_sample, BallRegion((0.0, 0.0, 0.0), 1.5, (6, 8, 5)), 1.5),
    ],
    ids=["rect", "ball"],
)
def test_a_walk_keeps_the_blocks_and_key_fixed_when_built(build, region, extent, monkeypatch):
    # at 10 columns a block every slowest-axis slice is a block; at 1000 the whole grid is one, whose
    # Gram can differ from the sliced one in its last bits (it does on these grids with OpenBLAS)
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 10)
    sample = build(region)
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 1000)
    fills = _fills(sample)
    gram = sample.gram_spectrum[0]
    slices = sample._shape[0]
    assert fills == [(lo, lo + 1) for lo in range(slices)]
    assert list(regions._STENCILS) == [(sample.tag, region.counts, extent, 10)]
    regions._STENCILS.clear()
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 10)
    assert np.array_equal(build(region).gram_spectrum[0], gram)


def _arbitrary():
    return regions.rect_arbitrary_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8)), seed=3)


def _array():
    return regions._as_sample(rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8))).directions.copy())


def _custom_fill():
    # the grid's own tag, region and shape, filled by another function: a sample the builder did not key
    grid = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8)))

    def fill(out, lo, hi):
        out.reshape(2, -1)[:] = grid._block(lo, hi)

    return SampleMatrix._lazy(grid.tag, grid.region, grid._shape, fill)


def _half():
    sample = ball_grid_sample(BallRegion((0.0, 0.0), 1.0, (4, 8)))
    simplex_gradient(get_field("cubic2").field, (0.0, 0.0), sample)  # S's own walk enters S's sums
    return antipodal_half(sample)


@pytest.mark.parametrize("build", [_arbitrary, _array, _custom_fill, _half], ids=["arbitrary", "array", "custom-fill", "half"])
def test_unkeyed_samples_never_read_or_write_the_table(build, monkeypatch):
    sample = build()
    table = _Recording()
    monkeypatch.setattr(regions, "_STENCILS", table)
    field = get_field("cubic2").field
    simplex_gradient(field, (0.0, 0.0), sample)
    classical_bound(sample, 1.0)
    centered_bound(sample, 1.0)
    if sample.indices is not None:
        sample.to_csv()
    assert sample._sums is not None and table.touched == [] and not table


def test_building_an_arbitrary_sample_reads_nothing_of_the_table(monkeypatch):
    table = _Recording()
    monkeypatch.setattr(regions, "_STENCILS", table)
    _arbitrary().radius
    assert table.touched == [] and not table


def test_a_keyed_sample_reads_and_writes_the_table(monkeypatch):
    table = _Recording()
    monkeypatch.setattr(regions, "_STENCILS", table)
    region = HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8))
    rect_grid_sample(region).radius
    key = ("rect-grid", (8, 8), (1.0, 1.0), regions.BLOCK_COLUMNS)
    assert table.touched == [("get", key), ("set", key)]  # when built, then at the walk's end
    rect_grid_sample(HyperrectRegion((5.0, 5.0), (1.0, 1.0), (8, 8))).radius
    assert table.touched[2:] == [("get", key)]


@pytest.mark.parametrize("stop", ["evaluation-error", "closed"])
def test_a_walk_stopped_early_publishes_nothing(stop, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 4)
    sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (3.0, 4.0), (3, 4)))
    if stop == "closed":
        walk = sample._blocks()
        next(walk)
        walk.close()
    else:
        field = ScalarField(2, lambda x: np.where(x[:, 1] > 3.5, np.inf, x[:, 0]))
        with pytest.raises(EvaluationError):
            simplex_gradient(field, (0.0, 0.0), sample)
    assert sample._sums is None and not regions._STENCILS


def test_the_table_keeps_its_newest_entries_within_its_bound():
    extents = [1.0 + k / 8 for k in range(regions._STENCIL_ENTRIES + 6)]
    for e in extents:
        rect_grid_sample(HyperrectRegion((0.0, 0.0), (e, 1.0), (2, 2))).radius
    assert len(regions._STENCILS) == regions._STENCIL_ENTRIES
    kept = [key[2][0] for key in regions._STENCILS]
    assert kept == extents[6:]  # the oldest six went first
