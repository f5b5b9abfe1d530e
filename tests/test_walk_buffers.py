"""The walk's buffer: a lazy sample's blocks are reused block to block; the field's points and the increments are not."""

from __future__ import annotations

import numpy as np
import pytest

from simplexgrad import gsg, regions
from simplexgrad.fields import get_field
from simplexgrad.gsg import EvaluationError, ScalarField, _increments, function_increments, simplex_gradient
from simplexgrad.regions import BallRegion, HyperrectRegion, antipodal_half, ball_grid_sample, rect_grid_sample

# (3, 4) unit cells from x0 = 0 at 4 columns a block: 4 blocks of one z2-slice (3 columns) each, so
# column k is (k % 3 + 1, k // 3 + 1) and the third block holds columns 6..8, points (1..3, 3)
SAMPLES = {
    "rect": lambda: rect_grid_sample(HyperrectRegion((0.0, 0.0), (3.0, 4.0), (3, 4))),
    "arbitrary": lambda: regions.rect_arbitrary_sample(HyperrectRegion((0.0, 0.0), (3.0, 4.0), (3, 4)), seed=5),
    "ball": lambda: ball_grid_sample(BallRegion((0.0, 0.0, 0.0), 1.0, (4, 3, 3))),
    "half": lambda: antipodal_half(ball_grid_sample(BallRegion((0.0, 0.0), 1.0, (4, 8)))),
}


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 4)


def _recorded(sample) -> list:
    """Every array ``sample._block`` returns, in call order."""
    got, block = [], sample._block
    sample._block = lambda lo, hi, buffer=None: got.append(block(lo, hi, buffer)) or got[-1]
    return got


@pytest.mark.parametrize("build", SAMPLES.values(), ids=SAMPLES.keys())
def test_consecutive_blocks_share_the_walks_buffer_and_directions_do_not(build):
    sample = build()
    blocks = [(lo, np.array(block), block) for lo, block in sample._blocks()]
    assert len(blocks) >= 3
    for (_, _, first), (_, _, second) in zip(blocks, blocks[1:]):
        assert np.shares_memory(first, second)
    directions = sample.directions
    assert not any(np.shares_memory(directions, block) for _, _, block in blocks)
    # each block held the columns it was yielded with, although the buffer has moved on since
    for lo, copy, _ in blocks:
        assert np.array_equal(copy, directions[:, lo : lo + copy.shape[1]])


def test_an_array_sample_yields_views_of_its_array():
    directions = rect_grid_sample(HyperrectRegion((0.0, 0.0), (3.0, 4.0), (3, 4))).directions.copy()
    sample = regions._as_sample(directions)
    assert all(np.shares_memory(block, directions) for _, block in sample._blocks())


@pytest.mark.parametrize("block_columns", [4, regions.BLOCK_COLUMNS], ids=["four-blocks", "one-block"])
def test_the_svd_inputs_are_fresh_arrays(block_columns, monkeypatch):
    # sides (1, 1e-16): sigma_min / sigma_max ~ 1e-16 < 16 eps, so singular_range decomposes S and the estimate
    # takes the SVD route
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1e-16), (4, 4)))
    arrays = _recorded(sample)
    svd_inputs, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svd_inputs.append(a) or svd(a, *args, **kwargs))
    pinv_inputs, pseudoinverse = [], gsg.pseudoinverse
    monkeypatch.setattr(gsg, "pseudoinverse", lambda a: pinv_inputs.append(a) or pseudoinverse(a))
    estimate = simplex_gradient(get_field("cubic2").field, (0.0, 0.0), sample)
    assert estimate.route == "svd" and len(pinv_inputs) == 1
    walked = arrays[: 4 if block_columns == 4 else 1]
    whole = svd_inputs[:1] + (pinv_inputs if block_columns == 4 else [])
    assert whole and all(a.shape == (2, 16) for a in whole)
    assert not any(np.shares_memory(a, block) for a in whole for block in walked)
    if block_columns != 4:
        assert pinv_inputs[0] is walked[0]  # one block: the route reads the walk's last block after the loop


FIELDS = {
    "view": lambda x: x[:, 0],
    "keeps-its-input": lambda x: np.sin(x[:, 0]) * x[:, 1],  # kept by the test below
    "smooth": lambda x: np.sin(x[:, 0]) * x[:, 1],
}


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("build", SAMPLES.values(), ids=SAMPLES.keys())
def test_increments_match_a_reference_on_fresh_arrays(build, name):
    sample = build()
    kept = []
    fn = FIELDS[name]
    field = ScalarField(dim=sample.dim, fn=lambda x: kept.append(x) or fn(x))
    x0 = np.linspace(0.25, 0.75, sample.dim)
    walked = [df for _, _, df in _increments(field, x0, sample._blocks())]
    first = kept[1:]  # kept[0] is x0
    got = function_increments(field, x0, sample)
    # the reference: every point its own fresh array, the same adds and the same subtraction
    points = np.empty_like(sample.directions)
    for k in range(sample.dim):
        points[k] = sample.directions[k] + x0[k]
    want = np.asarray(fn(points.T), dtype=float) - float(field(x0))
    assert np.array_equal(got, want) and np.array_equal(np.concatenate(walked), want)
    # the points each block of the first walk passed to the field still hold them after a second walk:
    # a field may keep its input
    assert len(first) == len(walked)
    assert np.array_equal(np.concatenate(first), points.T)


def test_consecutive_increments_and_points_are_fresh_arrays():
    sample = SAMPLES["rect"]()
    seen = []
    field = ScalarField(dim=2, fn=lambda x: seen.append(x) or x[:, 0] * x[:, 1])
    yielded = [(block, df) for _, block, df in _increments(field, np.zeros(2), sample._blocks())]
    points = seen[1:]  # seen[0] is x0
    assert len(points) == len(yielded) >= 3
    for k in range(1, len(yielded)):
        assert not np.shares_memory(yielded[k - 1][1], yielded[k][1])
        assert not np.shares_memory(points[k - 1], points[k])
        assert not np.shares_memory(points[k], yielded[k][0])


@pytest.mark.parametrize("bad", ["raise", "inf"])
@pytest.mark.parametrize("evaluate", [function_increments, simplex_gradient])
def test_a_failure_in_the_third_block_names_its_column_and_point(bad, evaluate):
    sample = SAMPLES["rect"]()

    def fn(x):
        hit = (x[:, 0] == 2.0) & (x[:, 1] == 3.0)  # column 7 alone
        if bad == "raise" and hit.any():
            raise ValueError("outside the domain")
        return np.where(hit, np.inf, x[:, 0])

    with pytest.raises(EvaluationError, match=r"at column 7 \(point \[2\. 3\.\]\)") as info:
        evaluate(ScalarField(dim=2, fn=fn), (0.0, 0.0), sample)
    assert info.value.index == 7
