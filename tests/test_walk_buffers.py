"""The walks' buffers: a lazy sample's blocks, and a limit's node parts, are reused block to block; the field's
points and the increments are not."""

from __future__ import annotations

import numpy as np
import pytest

from simplexgrad import gsg, limits, quadrature, regions
from simplexgrad.fields import get_field
from simplexgrad.gsg import EvaluationError, ScalarField, _increments, function_increments, simplex_gradient
from simplexgrad.quadrature import QuadratureSpec, ball_nodes, box_nodes
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


# the limit's node walk: m = 5 nodes an axis, so a first-axis slice holds 5^(n-1) nodes
M = 5
SIDES = (1.0, 0.5, 2.0, 0.75)


def _nodes(kind: str, n: int):
    """The rule's builder for one part, as the limit walk calls it."""
    if kind == "box":
        return lambda part, out=None: box_nodes(SIDES[:n], QuadratureSpec(M), part, out)
    return lambda part, out=None: ball_nodes(n, 1.3, QuadratureSpec(M), part, out)


@pytest.mark.parametrize("step", [2, 3], ids=["two-slices-a-part", "three-slices-a-part"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["box", "ball"])
def test_out_gives_a_fresh_calls_nodes_and_weights_bitwise(kind, n, step, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", step * M ** (n - 1))
    build = _nodes(kind, n)
    bounds = list(regions._block_bounds(M, M ** (n - 1)))
    assert len(bounds) >= 2 and bounds[-1][1] - bounds[-1][0] < step  # the last part is short
    size = step * M ** (n - 1)
    out = (np.full(n * size, np.nan), np.full(size, np.nan))
    for part in bounds:
        points, weights = build(part, out)
        fresh_points, fresh_weights = build(part)
        # the same layout (box: C-ordered rows; ball: points.T C-contiguous) and the same bytes
        assert points.shape == fresh_points.shape and points.strides == fresh_points.strides
        assert points.tobytes() == fresh_points.tobytes() and weights.tobytes() == fresh_weights.tobytes()
        assert np.shares_memory(points, out[0]) and np.shares_memory(weights, out[1])
        assert points.base is out[0] and weights.base is out[1]


@pytest.mark.parametrize(
    "out",
    [
        (np.zeros(2 * 25, dtype=np.float32), np.zeros(25)),
        (np.zeros((2, 25)), np.zeros(25)),
        (np.zeros(2 * 25), np.zeros(24)),
        (np.zeros(4 * 25)[::2], np.zeros(25)),
    ],
    ids=["float32", "two-d", "short", "strided"],
)
@pytest.mark.parametrize("kind", ["box", "ball"])
def test_a_bad_out_is_rejected(kind, out):
    with pytest.raises(ValueError, match="out must be two flat, C-contiguous float64 arrays of at least 50 and 25"):
        _nodes(kind, 2)(None, out)


def _box_moments(field):
    return limits.box_moment_vector(field, (0.1, 0.2, 0.3), SIDES[:3], QuadratureSpec(M))


def _ball_moments(field):
    return limits.ball_moment_vector(field, (0.1, 0.2, 0.3), 1.3, QuadratureSpec(M))


def _box_integral(field):
    return quadrature.integrate_box(field.fn, SIDES[:3], QuadratureSpec(M))


def _ball_integral(field):
    return quadrature.integrate_ball(field.fn, 3, 1.3, QuadratureSpec(M))


# each walk, and the module attribute through which it calls its builder
LIMIT_WALKS = {
    "box_moment_vector": (_box_moments, limits, "box_nodes"),
    "ball_moment_vector": (_ball_moments, limits, "ball_nodes"),
    "integrate_box": (_box_integral, quadrature, "box_nodes"),
    "integrate_ball": (_ball_integral, quadrature, "ball_nodes"),
}


def _smooth3() -> ScalarField:
    return ScalarField(dim=3, fn=lambda x: np.sin(x @ (0.5, 1.0, 1.5)) + (x**2).sum(axis=1))


@pytest.mark.parametrize("name", LIMIT_WALKS)
def test_a_limit_walk_builds_every_part_into_the_first_parts_buffers(name, monkeypatch):
    # two 25-node slices a part: parts (0, 2), (2, 4), (4, 5), the last one short
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 2 * M**2)
    walk, module, attr = LIMIT_WALKS[name]
    build, built = getattr(module, attr), []

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(module, attr, recording_build)
    got = walk(_smooth3())
    assert [w.size for _, w in built] == [50, 50, 25]
    (first_points, first_weights), *later = built
    for points, weights in later:
        assert np.shares_memory(points, first_points) and np.shares_memory(weights, first_weights)
    # today's walk: every part built into fresh arrays, summed by the same operations
    monkeypatch.setattr(module, attr, lambda *args: build(*args[:-1]))
    want = walk(_smooth3())
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_a_field_keeping_its_input_over_a_limit_keeps_each_parts_points(kind, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 2 * M**2)
    kept = []
    smooth = _smooth3()
    field = ScalarField(dim=3, fn=lambda x: kept.append(x) or smooth.fn(x))
    x0 = np.array([0.1, 0.2, 0.3])
    (_box_moments if kind == "box" else _ball_moments)(field)
    parts = kept[1:]  # kept[0] is x0
    assert len(parts) == 3
    for k, a in enumerate(parts):
        assert not any(np.shares_memory(a, b) for b in parts[k + 1 :])
    # after the walk, each array still holds x0 plus its own part's nodes
    build = _nodes(kind, 3)
    for (lo, hi), a in zip([(0, 2), (2, 4), (4, 5)], parts):
        nodes, _ = build((lo, hi))
        assert np.array_equal(a, nodes + x0)
