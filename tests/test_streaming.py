"""Block-streamed samples: lazy grids, block boundaries, error naming and memory."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from simplexgrad import regions
from simplexgrad.bounds import centered_bound, classical_bound
from simplexgrad.experiments import ExperimentConfig, antipodal_half, convergence
from simplexgrad.fields import get_field
from simplexgrad.gsg import EvaluationError, ScalarField, function_increments, simplex_gradient
from simplexgrad.limits import (
    ball_moment_vector,
    box_moment_vector,
    limit_gradient_ball,
    limit_gradient_box,
    taylor_diagnostics,
)
from simplexgrad.linalg import pseudoinverse
from simplexgrad.quadrature import QuadratureSpec, ball_nodes, box_nodes
from simplexgrad.regions import (
    BallRegion,
    HyperrectRegion,
    SampleMatrix,
    ball_grid_sample,
    rect_grid_sample,
    sample_radius,
)


def _smooth(n: int) -> ScalarField:
    c = np.linspace(0.5, 1.5, n)
    return ScalarField(
        dim=n,
        fn=lambda x: np.sin(x @ c) + (x**2).sum(axis=1),
        grad=lambda x: np.cos(x @ c) * c + 2.0 * x,
    )


def rect_arbitrary_seeded(region: HyperrectRegion) -> SampleMatrix:
    return regions.rect_arbitrary_sample(region, seed=11)


GRIDS = [
    (rect_grid_sample, HyperrectRegion((0.5, -0.25), (1.0, 2.0), (5, 7))),
    (rect_grid_sample, HyperrectRegion((0.1, 0.2, 0.3), (1.0, 0.5, 2.0), (4, 5, 6))),
    (rect_grid_sample, HyperrectRegion((0.0,) * 4, (1.0, 1.0, 0.5, 2.0), (3, 4, 3, 5))),
    (ball_grid_sample, BallRegion((0.5, -0.25), 1.5, (5, 8))),
    (ball_grid_sample, BallRegion((0.1, 0.2, 0.3), 0.8, (4, 5, 6))),
    (ball_grid_sample, BallRegion((0.0,) * 4, 0.9, (3, 4, 3, 5))),
    (rect_arbitrary_seeded, HyperrectRegion((0.5, -0.25), (1.0, 2.0), (5, 7))),
]


def _everything(sample, field, x0, estimate_first: bool = False) -> dict:
    """Every quantity the convergence loop reads from a sample.

    The radius and Gram are read first (their own walk, then the estimate's
    walk over the cached sums) or, with ``estimate_first``, the estimate's
    walk sums them.
    """
    out = {}
    if estimate_first:
        out["estimate"] = simplex_gradient(field, x0, sample).estimate
    out |= {"radius": sample_radius(sample), "gram": sample.gram_spectrum[0], "eigvals": sample.gram_spectrum[1]}
    if not estimate_first:
        out["estimate"] = simplex_gradient(field, x0, sample).estimate
    out["classical"] = classical_bound(sample, 2.0).value
    out["centered"] = centered_bound(sample, 3.0).value
    if isinstance(sample.region, BallRegion) and sample.dim == 2:
        half = antipodal_half(sample)
        out["half_centered"] = centered_bound(half, 3.0).value
        out["half"] = half.directions
    return out


# 10 columns: fewer than one slice of some grids, several slices of others, and dividing none of them
@pytest.mark.parametrize("block_columns", [10, regions.BLOCK_COLUMNS])
@pytest.mark.parametrize("build, region", GRIDS, ids=[f"{b.__name__}-{r.dim}d" for b, r in GRIDS])
def test_lazy_and_materialized_samples_agree_bitwise(build, region, block_columns, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    field, x0 = _smooth(region.dim), np.asarray(region.x0)
    lazy = build(region)
    got = _everything(lazy, field, x0)
    assert "directions" not in vars(lazy) and "indices" not in vars(lazy)
    regions._STENCILS.clear()  # so that no sample built below reads the lazy sample's sums when built
    touched = build(region)
    directions, indices = touched.directions, touched.indices

    def from_arrays():
        # the same grid cut into the same slices, each read from a copy of the materialized directions
        copy, width = np.array(directions), np.prod(touched._shape[1:], dtype=int)

        def fill(out, lo, hi):
            out.reshape(region.dim, -1)[:] = copy[:, lo * width : hi * width]

        return SampleMatrix._lazy(touched.tag, region, touched._shape, fill)

    # (sample, estimate_first): the estimate's walk summing the radius and Gram must change no bit
    others = [(touched, False), (from_arrays(), False), (build(region), True), (from_arrays(), True)]
    for other, estimate_first in others:
        regions._STENCILS.clear()  # so that every grid sample sums on its own walk
        want = _everything(other, field, x0, estimate_first)
        assert want.keys() == got.keys()
        for key, value in got.items():
            assert np.array_equal(value, want[key]), key
    assert np.array_equal(lazy.directions, directions) and np.array_equal(lazy.indices, indices)
    assert not lazy.directions.flags.writeable and not lazy.indices.flags.writeable
    # a plain array is cut every BLOCK_COLUMNS columns, so it agrees to roundoff
    plain = simplex_gradient(field, x0, np.array(directions)).estimate
    assert np.allclose(plain, got["estimate"], rtol=1e-12, atol=0.0)


_FIRST_WALKS = {
    "estimate": lambda sample, field, x0: simplex_gradient(field, x0, sample),
    "increments": lambda sample, field, x0: function_increments(field, x0, sample),
    "to_csv": lambda sample, field, x0: sample.to_csv(),
    "radius": lambda sample, field, x0: sample_radius(sample),
}


@pytest.mark.parametrize("block_columns", [10, regions.BLOCK_COLUMNS])
@pytest.mark.parametrize("build, region", GRIDS, ids=[f"{b.__name__}-{r.dim}d" for b, r in GRIDS])
def test_any_first_walk_leaves_the_same_radius_and_gram(build, region, block_columns, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    field, x0 = _smooth(region.dim), np.asarray(region.x0)
    sums = {}
    for reader, walk in _FIRST_WALKS.items():
        regions._STENCILS.clear()  # so that every reader's walk sums, rather than reading the first one's
        sample = build(region)
        walk(sample, field, x0)
        assert sample._sums is not None, reader
        sums[reader] = sample._sums
    radius, gram = sums.pop("estimate")
    for reader, (other_radius, other_gram) in sums.items():
        assert other_radius == radius and np.array_equal(other_gram, gram), reader


# the thin axis slowest and fastest: every column of a slice ties with its neighbours' norms to roundoff
_THIN = [
    (rect_grid_sample, HyperrectRegion((0.0, 0.0), (1.0, 1e-11), (24, 32))),
    (rect_grid_sample, HyperrectRegion((0.3, -0.2), (1e-11, 1.0), (24, 32))),
]


@pytest.mark.parametrize("block_columns", [10, regions.BLOCK_COLUMNS])
@pytest.mark.parametrize("build, region", GRIDS + _THIN, ids=[f"{b.__name__}-{r.dim}d" for b, r in GRIDS + _THIN])
def test_a_grid_walk_scans_only_its_last_block_for_the_radius(build, region, block_columns, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    regions._STENCILS.clear()
    sample = build(region)
    einsum, calls = np.einsum, []
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
    blocks = sum(1 for _ in sample._blocks())
    assert calls == ["ij,ij->j"] * (1 if sample._key is not None else blocks)
    # the full scan: every column of the whole array, and every block as the walk cuts them
    directions = sample.directions
    whole = float(np.sqrt(np.max(einsum("ij,ij->j", directions, directions))))
    width = math.prod(sample._shape[1:])
    by_block = max(
        float(np.max(einsum("ij,ij->j", d, d)))
        for d in (directions[:, lo * width : hi * width] for lo, hi in regions._block_bounds(sample._shape[0], width))
    )
    assert sample.radius == whole == float(np.sqrt(by_block)) == float(np.max(np.linalg.norm(directions, axis=0)))


def test_blocks_are_whole_slices_of_the_slowest_axis(monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 10)
    rect = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (3, 7)))
    assert [(start, b.shape[1]) for start, b in rect._blocks()] == [(0, 9), (9, 9), (18, 3)]
    # a slice wider than a block is one block
    ball = ball_grid_sample(BallRegion((0.0,) * 3, 1.0, (3, 4, 5)))
    assert [(start, b.shape[1]) for start, b in ball._blocks()] == [(0, 20), (20, 20), (40, 20)]
    plain = regions._as_sample(np.ones((2, 25)))
    assert [(start, b.shape[1]) for start, b in plain._blocks()] == [(0, 10), (10, 10), (20, 5)]


def test_wrapping_a_plain_array_leaves_it_writeable():
    s = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
    assert sample_radius(s) == pytest.approx(np.sqrt(8.0))
    s[0, 0] = 3.0


@pytest.mark.parametrize("bad", ["raise", "inf"])
def test_later_block_names_the_global_column(bad, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 4)
    # unit cells from x0 = 0: column k is (j, z) with j = k % 3 + 1 fastest, so z = 4 starts at column 9
    sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (3.0, 4.0), (3, 4)))
    assert len(list(sample._blocks())) == 4

    def fn(x):
        if bad == "raise" and np.any(x[:, 1] > 3.5):
            raise ValueError("outside the domain")
        return np.where(x[:, 1] > 3.5, np.inf, x[:, 0])

    field = ScalarField(dim=2, fn=fn, grad=lambda x: np.array([1.0, 0.0]))
    for evaluate in (function_increments, simplex_gradient):
        with pytest.raises(EvaluationError, match=r"at column 9 \(point \[1\. 4\.\]\)") as info:
            evaluate(field, (0.0, 0.0), sample)
        assert info.value.index == 9


def test_later_node_block_names_the_global_node(monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 7)
    spec = QuadratureSpec(8)
    points, _ = box_nodes((1.0, 1.0), spec)
    first = int(np.argmax(points[:, 0] > 0.5))
    assert first >= 7  # not in the first block
    field = ScalarField(dim=2, fn=lambda x: np.where(x[:, 0] > 0.5, np.inf, x[:, 0]))
    with pytest.raises(EvaluationError, match=rf"field evaluation failed at node {first} \(point"):
        limit_gradient_box(field, (0.0, 0.0), (1.0, 1.0), spec)


def test_later_integrand_part_names_the_global_node(monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 8)
    spec = QuadratureSpec(8)
    points, _ = ball_nodes(2, 1.0, spec)
    first = int(np.argmax(points[:, 0] > 0.5))
    assert first >= 8  # not in the first part
    field = ScalarField(dim=2, fn=lambda x: np.where(x[:, 0] > 0.5, np.inf, x[:, 0]))
    with pytest.raises(EvaluationError, match=rf"field evaluation failed at node {first} \(point") as info:
        limit_gradient_ball(field, (0.0, 0.0), 1.0, spec)
    assert info.value.index == first


def test_blocked_moments_agree_with_one_block(monkeypatch):
    field = _smooth(2)
    whole = limit_gradient_box(field, (0.2, 0.1), (1.0, 2.0), QuadratureSpec(16)).estimate
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 7)
    blocked = limit_gradient_box(field, (0.2, 0.1), (1.0, 2.0), QuadratureSpec(16)).estimate
    assert np.allclose(blocked, whole, rtol=1e-13, atol=0.0)


def _csv_reference(sample) -> str:
    """The one-row-at-a-time writer the column-wise one replaced."""
    n, cols = sample.directions.shape
    head = ",".join([f"i{k + 1}" for k in range(n)] + [f"s{k + 1}" for k in range(n)])
    lines = ["n,N,tag", f"{n},{cols},{sample.tag}", f"col,{head}"]
    for j in range(cols):
        idx = ",".join(str(int(v)) for v in sample.indices[j])
        comps = ",".join(repr(float(v)) for v in sample.directions[:, j])
        lines.append(f"{j + 1},{idx},{comps}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_columns", [7, regions.BLOCK_COLUMNS])
def test_csv_matches_the_row_writer(block_columns, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    samples = [
        rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 3.0), (5, 4))),
        regions.rect_arbitrary_sample(HyperrectRegion((0.0,) * 3, (1.0, 2.0, 0.5), (3, 4, 2)), seed=5),
        ball_grid_sample(BallRegion((0.0,) * 3, 1.0, (3, 4, 3))),
        SampleMatrix(np.zeros((2, 0)), "empty", np.zeros((0, 2), dtype=np.int64)),
    ]
    for sample in samples:
        assert sample.to_csv() == _csv_reference(sample)


def test_scalar_field_on_exactly_dim_points():
    scalar = ScalarField(2, lambda p: p[0] ** 2 + p[1] ** 2)
    vectorized = ScalarField(2, lambda x: x[:, 0] ** 2 + x[:, 1] ** 2)
    for field in (scalar, vectorized):
        assert field([[1.0, 2.0], [3.0, 4.0]]).tolist() == [5.0, 25.0]
        assert field([1.0, 2.0]) == 5.0
    square = SampleMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]), "pair", None)
    assert function_increments(scalar, (1.0, 1.0), square).tolist() == [3.0, 8.0]


def test_thin_box_accuracy_is_pinned():
    # d = (1, 1e-8) squares cond(S) ~ 1.5e8 in the Gram; the error was 2.59e-8 before streaming
    entry = get_field("affine2")
    x0 = np.asarray(entry.anchor)
    sample = rect_grid_sample(HyperrectRegion(tuple(x0), (1.0, 1e-8), (64, 64)))
    assert simplex_gradient(entry.field, x0, sample).error < 3e-8


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, -0.2)])
def test_thin_box_accuracy_is_pinned_across_blocks(x0):
    # 1024^2 columns are 64 blocks: 7.1e-9 and 3.5e-8 here; a sequential streamed QR of [S^T | df] read 1.5e-6
    sample = rect_grid_sample(HyperrectRegion(x0, (1.0, 1e-8), (1024, 1024)))
    assert simplex_gradient(get_field("affine2").field, x0, sample).error < 1e-7


def test_thin_box_row_reads_its_singular_values_without_caching_directions():
    # cond(S) ~ 1.5e8 takes the SVD for sigma; it read a cached directions array and an S / Delta copy
    sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1e-8), (1024, 1024)))
    tracemalloc.start()
    try:
        simplex_gradient(get_field("affine2").field, (0.0, 0.0), sample)
        classical_bound(sample, 1.0)
        centered_bound(sample, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 32.0 MiB with the cached directions; 16.4 MiB with one transient array for both bounds
    assert peak < 24 * 2**20
    assert "directions" not in vars(sample)


# (6, 10) at 20 columns a block: rect blocks are 3 z2-slices of 6 columns, ball blocks 2 shells of 10
@pytest.mark.parametrize(
    "region, blocks",
    [("rect", [(0, 3), (3, 6), (6, 9), (9, 10)]), ("ball", [(0, 2), (2, 4), (4, 6)])],
    ids=["rect", "ball"],
)
def test_a_row_fills_each_block_once_and_evaluates_n_plus_one_points(region, blocks, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 20)
    fills, points = [], []
    lazy, call = SampleMatrix._lazy.__func__, ScalarField.__call__

    def counting_lazy(cls, tag, grid, counts, fill, sums=None, geometry=None):
        def counted(out, lo, hi):
            fills.append((lo, hi))
            fill(out, lo, hi)

        return lazy(cls, tag, grid, counts, counted, sums, geometry)

    def counting_call(self, p):
        points.append(len(np.atleast_2d(p)))
        return call(self, p)

    monkeypatch.setattr(SampleMatrix, "_lazy", classmethod(counting_lazy))
    monkeypatch.setattr(ScalarField, "__call__", counting_call)
    result = convergence(ExperimentConfig(field_id="cubic2", region=region, schedule=((6, 10),), nodes=8))
    assert fills == blocks
    assert sum(points) == (60 + 1) + (8**2 + 1)  # the row's N + 1 points and the limit's nodes + 1
    assert (result.rows[0].centered_bound is None) == (region == "rect")


# a 64^2 box with sides (1, 1e-12) is numerically rank deficient, sigma_min / sigma_max ~ 1e-12 < 4096 eps:
# one block reuses the walk's increments (the field was evaluated 2N + 2 times), four evaluate again
@pytest.mark.parametrize("block_columns, evaluations", [(regions.BLOCK_COLUMNS, 4097), (1024, 2 * 4097)], ids=["one-block", "four-blocks"])
def test_svd_route_evaluates_again_only_past_one_block(block_columns, evaluations, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    field, x0 = get_field("cubic2").field, (1.0, 1.0)
    sample = rect_grid_sample(HyperrectRegion(x0, (1.0, 1e-12), (64, 64)))
    points, call = [], ScalarField.__call__

    def counting_call(self, p):
        points.append(len(np.atleast_2d(p)))
        return call(self, p)

    monkeypatch.setattr(ScalarField, "__call__", counting_call)
    est = simplex_gradient(field, x0, sample)
    assert est.route == "svd"
    assert sum(points) == evaluations
    monkeypatch.undo()
    assert np.array_equal(est.estimate, pseudoinverse(sample.directions).T @ function_increments(field, x0, sample))


@pytest.mark.parametrize("region", ["rect", "ball"])
def test_one_row_at_1024_squared_stays_small(region):
    config = ExperimentConfig(field_id="cubic2", region=region, schedule=((1024, 1024),))
    tracemalloc.start()
    try:
        convergence(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the materialized directions, indices and shifted points took 64.7 MB (rect) and 72.0 MB (ball);
    # the materialized half sample of the ball row took 8 MB of a 9.4 MB peak
    assert peak < 4 * 2**20


def test_one_arbitrary_row_at_1024_squared_keeps_only_its_shifts(monkeypatch):
    from simplexgrad import experiments

    built, build = [], experiments.rect_arbitrary_sample
    monkeypatch.setattr(experiments, "rect_arbitrary_sample", lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    config = ExperimentConfig(field_id="cubic2", region="rect", sample="arbitrary", schedule=((1024, 1024),))
    tracemalloc.start()
    try:
        convergence(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the materialized grid, offsets, directions and indices took a 66.7 MiB peak; the shifts alone are 16 MiB
    assert peak < 24 * 2**20
    assert "directions" not in vars(built[0]) and "indices" not in vars(built[0])


def test_the_half_taken_first_or_after_gives_the_same_estimate_and_bound():
    region = BallRegion((0.5, -0.25), 1.5, (5, 8))
    field, x0 = _smooth(2), np.asarray(region.x0)
    got = []
    for half_first in (True, False):
        regions._STENCILS.clear()  # so that each sample is walked on its own
        sample = ball_grid_sample(region)
        fills, block = [], sample._block
        sample._block = lambda lo, hi, buffer=None: fills.append((lo, hi)) or block(lo, hi, buffer)
        if half_first:
            half = antipodal_half(sample)  # walks S for its radius and Gram
        estimate = simplex_gradient(field, x0, sample).estimate
        if not half_first:
            half = antipodal_half(sample)
        got.append((estimate, centered_bound(half, 3.0).value))
        # S is walked by the estimate and, taken first, by the half, which reads S's sums when built
        assert fills == [(0, 5)] * (2 if half_first else 1)
    (first_estimate, first_bound), (then_estimate, then_bound) = got
    assert np.array_equal(first_estimate, then_estimate) and first_bound == then_bound


@pytest.mark.parametrize("limit", [limit_gradient_ball, limit_gradient_box], ids=["ball", "box"])
def test_limit_peaks_at_a_few_parts(limit):
    entry = get_field("affine3")
    arg = 1.0 if limit is limit_gradient_ball else (1.0, 0.5, 2.0)
    spec = QuadratureSpec(96)
    tracemalloc.start()
    try:
        limit(entry.field, entry.anchor, arg, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole rule's nodes and weights take 28.3 MB at 96^3; one part of 96^2 nodes takes 0.3 MB
    assert peak < 4 * 2**20


_SPLITS_AND_INTEGRALS = {
    "ball-split": lambda f, x0, spec: taylor_diagnostics(f, x0, r=1.0, spec=spec),
    "box-split": lambda f, x0, spec: taylor_diagnostics(f, x0, d=(1.0, 0.5, 2.0), spec=spec),
    "integrate-ball": lambda f, x0, spec: ball_moment_vector(f, x0, 1.0, spec),
    "integrate-box": lambda f, x0, spec: box_moment_vector(f, x0, (1.0, 0.5, 2.0), spec),
}


@pytest.mark.parametrize("run", _SPLITS_AND_INTEGRALS.values(), ids=_SPLITS_AND_INTEGRALS.keys())
def test_taylor_split_and_integrals_peak_at_a_few_parts(run):
    entry = get_field("affine3")
    spec = QuadratureSpec(96)
    tracemalloc.start()
    try:
        run(entry.field, entry.anchor, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # built as the whole rule, the splits peaked at 47.9 MiB (ball) and 33.8 MiB (box); each integral here is
    # the moment walk that a split takes
    assert peak < 4 * 2**20


@pytest.mark.parametrize("kind", ["ball", "box"])
def test_limit_builds_its_nodes_once_per_part(kind, monkeypatch):
    from simplexgrad import limits

    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 2 * 5**2)
    name = f"{kind}_nodes"
    build, parts, points = getattr(limits, name), [], []

    def counting_build(*args):
        *region, part, out = args
        parts.append(part)
        return build(*region, part, out)

    call = ScalarField.__call__

    def counting_call(self, p):
        points.append(len(np.atleast_2d(p)))
        return call(self, p)

    monkeypatch.setattr(limits, name, counting_build)
    monkeypatch.setattr(ScalarField, "__call__", counting_call)
    field = _smooth(3)
    spec = QuadratureSpec(5)
    if kind == "ball":
        got = limits.ball_moment_vector(field, (0.1, 0.2, 0.3), 1.5, spec)
        nodes, weights = ball_nodes(3, 1.5, spec)
    else:
        got = limits.box_moment_vector(field, (0.1, 0.2, 0.3), (1.0, 0.5, 2.0), spec)
        nodes, weights = box_nodes((1.0, 0.5, 2.0), spec)
    # whole radial (or x_1) slices of 25 nodes, two to a part, the last part partial
    assert parts == [(0, 2), (2, 4), (4, 5)]
    assert points == [1, 50, 50, 25]  # f(x0) once, then each part's nodes
    f0 = field(np.array([[0.1, 0.2, 0.3]]))[0]
    want = (weights * (field(nodes + (0.1, 0.2, 0.3)) - f0)) @ nodes
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
