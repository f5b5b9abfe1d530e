"""The per-axis grid builders against the meshgrid construction they replaced.

The reference functions below materialize every node or column with
``meshgrid``/``stack``/``tile``/``repeat`` and evaluate cos/sin on every
point. The builders broadcast per-axis vectors instead, with the same
arithmetic in the same order, so the results must be bitwise equal.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from simplexgrad import regions
from simplexgrad.quadrature import QuadratureSpec, _gl_axis, ball_nodes, box_nodes
from simplexgrad.regions import (
    BallRegion,
    BudgetExceededError,
    HyperrectRegion,
    ball_grid_sample,
    rect_grid_sample,
)


def reference_tensor(axes):
    pts = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wts = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    points = np.stack([p.ravel() for p in pts], axis=-1)
    weights = np.ones(points.shape[0])
    for w in wts:
        weights *= w.ravel()
    return points, weights


def reference_spherical_points(rho, theta, phis):
    n = 2 + phis.shape[1]
    out = np.empty(rho.shape + (n,), dtype=float)
    running = np.asarray(rho, dtype=float).copy()
    for i in range(n - 2):
        out[..., i] = running * np.cos(phis[:, i])
        running = running * np.sin(phis[:, i])
    out[..., n - 2] = running * np.cos(theta)
    out[..., n - 1] = running * np.sin(theta)
    return out


def reference_box_nodes(d, m):
    return reference_tensor([_gl_axis(0.0, di, m) for di in d])


def reference_ball_nodes(n, r, m):
    # the angular nodes' unit directions first, then each radius times them, radius slowest
    (rho, w_rho), *angles = [_gl_axis(0.0, r, m), _gl_axis(0.0, 2.0 * math.pi, m)]
    angles += [_gl_axis(0.0, math.pi, m) for _ in range(n - 2)]
    grids = np.meshgrid(*[q for q, _ in angles], indexing="ij")
    weight_grids = np.meshgrid(*[w for _, w in angles], indexing="ij")
    theta = grids[0].ravel()
    phis = np.empty((theta.size, n - 2))
    for i, g in enumerate(grids[1:]):
        phis[:, i] = g.ravel()
    units = reference_spherical_points(np.ones(theta.size), theta, phis)
    angular = weight_grids[0].ravel()
    for i in range(n - 2):
        angular = angular * (weight_grids[i + 1].ravel() * np.sin(phis[:, i]) ** (n - 2 - i))
    points = (rho[:, None, None] * units[None, :, :]).reshape(-1, n)
    weights = ((w_rho * rho ** (n - 1))[:, None] * angular[None, :]).reshape(-1)
    return points, weights


def reference_rect_grid(region):
    counts = region.counts
    blocks = np.meshgrid(*[np.arange(1, c + 1) for c in counts[1:]], indexing="ij")
    z = np.stack([b.ravel() for b in blocks], axis=-1)
    j = np.tile(np.arange(1, counts[0] + 1), z.shape[0])
    idx = np.column_stack([j, np.repeat(z, counts[0], axis=0)])
    return (idx * np.asarray(region.sublengths)).T.astype(float), idx


def reference_ball_grid(region):
    n = region.dim
    counts = np.asarray(region.counts)
    grids = np.meshgrid(*[np.arange(1, c + 1) for c in region.counts], indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=-1)
    rho = region.r * idx[:, 0] / counts[0]
    theta = 2.0 * math.pi * idx[:, 1] / counts[1]
    directions = np.empty((n, idx.shape[0]))
    running = rho.astype(float).copy()
    for k in range(n - 2):
        phi = math.pi * idx[:, k + 2] / counts[k + 2]
        directions[k] = running * np.cos(phi)
        running = running * np.sin(phi)
    directions[n - 2] = running * np.cos(theta)
    directions[n - 1] = running * np.sin(theta)
    return directions, idx


COUNTS = [(4, 5), (3, 3), (7, 3, 4), (4, 5, 6, 3), (3, 4, 3, 5, 3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 5, 8])
def test_quadrature_nodes_match_reference_bitwise(n, m):
    d = np.linspace(0.5, 2.0, n)
    for got, want in zip(box_nodes(d, QuadratureSpec(m)), reference_box_nodes(d, m)):
        assert got.shape == want.shape and np.array_equal(got, want)
    for got, want in zip(ball_nodes(n, 1.3, QuadratureSpec(m)), reference_ball_nodes(n, 1.3, m)):
        assert got.shape == want.shape and np.array_equal(got, want)


# (n, m, BLOCK_COLUMNS): slabs of 2, 2, 1 radial slices; then 7 slices a slab, the last of 6
@pytest.mark.parametrize("n, m, block_columns", [(2, 5, 10), (3, 48, regions.BLOCK_COLUMNS)])
def test_ball_nodes_written_in_slabs_match_reference_bitwise(n, m, block_columns, monkeypatch):
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", block_columns)
    step = max(1, block_columns // m ** (n - 1))
    assert 1 < -(-m // step) and m % step != 0  # several slabs, the last one partial
    for got, want in zip(ball_nodes(n, 0.9, QuadratureSpec(m)), reference_ball_nodes(n, 0.9, m)):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("counts", COUNTS)
def test_rect_grid_matches_reference_bitwise(counts):
    n = len(counts)
    region = HyperrectRegion((0.25,) * n, tuple(np.linspace(0.7, 1.9, n)), counts)
    sample = rect_grid_sample(region)
    directions, idx = reference_rect_grid(region)
    assert np.array_equal(sample.directions, directions)
    assert np.array_equal(sample.indices, idx) and sample.indices.dtype == idx.dtype


@pytest.mark.parametrize("counts", COUNTS)
def test_ball_grid_matches_reference_bitwise(counts):
    n = len(counts)
    region = BallRegion((0.25,) * n, 1.7, counts)
    sample = ball_grid_sample(region)
    directions, idx = reference_ball_grid(region)
    assert np.array_equal(sample.directions, directions)
    assert np.array_equal(sample.indices, idx) and sample.indices.dtype == idx.dtype


@pytest.mark.parametrize(
    "build",
    [
        lambda spec: box_nodes((1.0, 1.0), spec),
        lambda spec: ball_nodes(2, 1.0, spec),
    ],
    ids=["box", "ball"],
)
def test_node_budget(build):
    # 3163^2 = 10,004,569 nodes, just over DEFAULT_COLUMN_BUDGET; raised before any node is built
    with pytest.raises(BudgetExceededError, match="quadrature nodes"):
        build(QuadratureSpec(3163))
