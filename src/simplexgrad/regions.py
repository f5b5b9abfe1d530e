"""Structured sample sets on boxes and balls.

A sample set is an n x N matrix of directions: column j is the offset from
the reference point to the j-th sample point. Three builders are provided:

* ``rect_grid_sample`` -- one point per cell of a subdivided box, at the
  cell corner farthest from the reference point;
* ``rect_arbitrary_sample`` -- one point per cell at an arbitrary (seeded
  or caller-supplied) position inside the closed cell;
* ``ball_grid_sample`` -- one point per cell of a polar grid on a ball,
  at the cell corner with the largest radius and angles.

Column order is deterministic: cells are enumerated lexicographically by
multi-index, which makes block-structure assertions and CSV output
reproducible.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BudgetExceededError",
    "HyperrectRegion",
    "BallRegion",
    "SampleMatrix",
    "rect_grid_sample",
    "rect_arbitrary_sample",
    "ball_grid_sample",
    "grid_jacobian",
    "sample_radius",
]

DEFAULT_COLUMN_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """Requested grid would exceed ``DEFAULT_COLUMN_BUDGET``."""


@dataclass(frozen=True)
class HyperrectRegion:
    """Axis-aligned box ``[x0, x0 + d]`` subdivided into a grid of cells.

    ``x0`` sits at the minimal corner. ``counts[i]`` is the number of equal
    subdivisions of side i, so the grid has ``prod(counts)`` cells of side
    lengths ``d[i] / counts[i]``.
    """

    x0: tuple[float, ...]
    d: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "d", tuple(float(v) for v in self.d))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        n = len(self.x0)
        if n < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.d) != n or len(self.counts) != n:
            raise ValueError("x0, d and counts must have matching lengths")
        if any(not math.isfinite(v) for v in self.x0):
            raise ValueError("x0 must be finite")
        if any(not math.isfinite(v) for v in self.d):
            raise ValueError("side lengths must be finite")
        if any(v <= 0 for v in self.d):
            raise ValueError("side lengths must be positive")
        if any(c < 2 for c in self.counts):
            raise ValueError("subdivision counts must be >= 2")

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def sublengths(self) -> tuple[float, ...]:
        return tuple(di / ci for di, ci in zip(self.d, self.counts))

    @property
    def n_cells(self) -> int:
        return int(np.prod([float(c) for c in self.counts]))


@dataclass(frozen=True)
class BallRegion:
    """Ball of radius ``r`` about ``x0`` with a polar grid of cells.

    ``counts[0]`` subdivides the radius, ``counts[1]`` the full turn of the
    azimuthal angle, and ``counts[2:]`` the half-turn ranges of the polar
    angles. All counts must be >= 3 so the sample matrix has full row rank.
    """

    x0: tuple[float, ...]
    r: float
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        n = len(self.x0)
        if n < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.counts) != n:
            raise ValueError("counts must have one entry per dimension")
        if any(not math.isfinite(v) for v in self.x0):
            raise ValueError("x0 must be finite")
        if not math.isfinite(self.r):
            raise ValueError("radius must be finite")
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if any(c < 3 for c in self.counts):
            raise ValueError("subdivision counts must be >= 3")

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def n_cells(self) -> int:
        return int(np.prod([float(c) for c in self.counts]))


@dataclass(frozen=True)
class SampleMatrix:
    """Direction matrix with per-column partition indices.

    ``directions`` is n x N; ``indices`` is N x n and holds the 1-based
    multi-index of the cell each column samples. Both arrays are made
    read-only on construction, so the radius and Gram spectrum, computed
    once on first use and shared by the estimator and the bounds, cannot
    go stale.
    """

    directions: np.ndarray
    tag: str
    indices: np.ndarray
    region: HyperrectRegion | BallRegion | None = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        self.directions.flags.writeable = False
        self.indices.flags.writeable = False

    @cached_property
    def radius(self) -> float:
        """Largest column norm."""
        return _radius(self.directions)

    @cached_property
    def gram_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix ``S S^T`` and its eigenvalues in ascending order (read-only)."""
        gram, eigvals = _gram_spectrum(self.directions)
        gram.flags.writeable = False
        eigvals.flags.writeable = False
        return gram, eigvals

    @property
    def dim(self) -> int:
        return self.directions.shape[0]

    @property
    def n_columns(self) -> int:
        return self.directions.shape[1]

    def to_csv(self, out=None) -> str:
        """Serialize as CSV: n/N/tag header, then one row per column.

        Each row is ``col, i1..in, s1..sn`` (cell multi-index, then
        direction components). Floats are written with round-trip
        precision; line endings are LF.
        """
        buf = io.StringIO()
        n, cols = self.directions.shape
        buf.write("n,N,tag\n")
        buf.write(f"{n},{cols},{self.tag}\n")
        head = ",".join([f"i{k + 1}" for k in range(n)] + [f"s{k + 1}" for k in range(n)])
        buf.write(f"col,{head}\n")
        for j in range(cols):
            idx = ",".join(str(int(v)) for v in self.indices[j])
            comps = ",".join(repr(float(v)) for v in self.directions[:, j])
            buf.write(f"{j + 1},{idx},{comps}\n")
        text = buf.getvalue()
        if out is not None:
            out.write(text)
        return text


def _check_budget(n_cells: int, unit: str = "columns") -> None:
    if n_cells > DEFAULT_COLUMN_BUDGET:
        raise BudgetExceededError(f"grid would need {n_cells} {unit}; budget is {DEFAULT_COLUMN_BUDGET}")


def _along(v, axis: int, ndim: int) -> np.ndarray:
    """View of the 1-d ``v`` laid along ``axis`` of an ``ndim``-d grid, for broadcasting."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(v, shape)


def _grid_indices(counts: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """All 1-based cell multi-indices as an N x n ``int64`` array.

    ``order`` lists the axes from slowest to fastest varying down the rows.
    """
    n = len(counts)
    shape = tuple(counts[a] for a in order)
    idx = np.empty((math.prod(shape), n), dtype=np.int64)
    grid = idx.reshape(shape + (n,))
    for pos, a in enumerate(order):
        grid[..., a] = _along(np.arange(1, counts[a] + 1), pos, n)
    return idx


def _spherical_map(rho, theta, phis, out: np.ndarray) -> None:
    """Write the spherical map of (rho, theta, phis) into ``out[0..n-1]``.

    ``out[k] = rho sin(phis[0])..sin(phis[k-1]) cos(phis[k])`` for the polar
    angles, then the azimuthal cos/sin pair in the last two rows. The inputs broadcast
    against ``out[k]``, so each cos/sin runs once per value given.
    """
    n = len(phis) + 2
    running = rho
    for k, phi in enumerate(phis):
        out[k] = running * np.cos(phi)
        running = running * np.sin(phi)
    out[n - 2] = running * np.cos(theta)
    out[n - 1] = running * np.sin(theta)


def rect_grid_sample(region: HyperrectRegion) -> SampleMatrix:
    """Directions to the far corner of every cell of the box grid.

    The column for multi-index (j, z_2..z_n) is
    ``(j h_1, z_2 h_2, ..., z_n h_n)`` with h the cell side lengths; the
    matrix has full row rank for all counts >= 2. Raises
    ``BudgetExceededError`` above ``DEFAULT_COLUMN_BUDGET`` columns.
    """
    _check_budget(region.n_cells)
    n = region.dim
    # columns run with j (axis 1) fastest, then z_n, ..., z_2 slowest
    order = tuple(range(1, n)) + (0,)
    shape = tuple(region.counts[a] for a in order)
    directions = np.empty((n, region.n_cells))
    grid = directions.reshape((n,) + shape)
    for a, (c, h) in enumerate(zip(region.counts, region.sublengths)):
        grid[a] = _along(np.arange(1, c + 1) * h, order.index(a), n)
    idx = _grid_indices(region.counts, order)
    return SampleMatrix(directions, "rect-grid", idx, region)


def rect_arbitrary_sample(region: HyperrectRegion, offsets=None, seed=None) -> SampleMatrix:
    """One direction per cell, at an arbitrary point of the closed cell.

    The sampled point for a cell is its far corner minus ``offsets * h``
    componentwise, with every offset in [0, 1] (0 keeps the far corner,
    1 reaches the near corner; cell boundaries are allowed). Offsets come
    either from ``offsets`` (an (n, N) array) or from a seeded generator.
    The column budget is that of ``rect_grid_sample``, which builds the
    far corners.
    """
    grid = rect_grid_sample(region)
    n, cols = grid.directions.shape
    if offsets is None:
        rng = np.random.default_rng(seed)
        off = rng.random((n, cols))
    else:
        off = np.asarray(offsets, dtype=float)
        if off.shape != (n, cols):
            raise ValueError(f"offsets must have shape {(n, cols)}, got {off.shape}")
        if np.any(off < 0.0) or np.any(off > 1.0) or not np.all(np.isfinite(off)):
            raise ValueError("offsets must lie in [0, 1]")
    h = np.asarray(region.sublengths)[:, None]
    directions = grid.directions - h * off
    return SampleMatrix(directions, "rect-arbitrary", grid.indices, region)


def ball_grid_sample(region: BallRegion) -> SampleMatrix:
    """Directions to the outer corner of every cell of the polar grid.

    For multi-index y = (y_1..y_n) the column has radius ``r y_1 / N_1``;
    its direction is built from the polar angles ``pi y_k / N_k``
    (k = 3..n) and the azimuth ``2 pi y_2 / N_2``, with the azimuthal
    components placed last. Every column norm is at most r, with equality
    exactly on the outermost shell y_1 = N_1.

    For n >= 3 the grid has repeated columns: a polar index y_k = N_k puts
    that angle at pi, and sin(pi) ~ 1e-16 collapses every later component,
    so the columns differing only in later indices agree to ~1e-16 r (not
    bitwise). In 3-d that gives N_1 (N_2 - 1) repeats, e.g. 27 distinct
    columns of 36 at counts (3, 4, 3). They are kept because the paper's
    construction has them; they count in N. Raises ``BudgetExceededError``
    above ``DEFAULT_COLUMN_BUDGET`` columns.
    """
    _check_budget(region.n_cells)
    n = region.dim
    counts = region.counts
    y = [np.arange(1, c + 1) for c in counts]
    rho = _along(region.r * y[0] / counts[0], 0, n)
    theta = _along(2.0 * math.pi * y[1] / counts[1], 1, n)
    phis = [_along(math.pi * y[k] / counts[k], k, n) for k in range(2, n)]
    directions = np.empty((n, region.n_cells))
    _spherical_map(rho, theta, phis, directions.reshape((n,) + counts))
    idx = _grid_indices(counts, tuple(range(n)))
    return SampleMatrix(directions, "ball-grid", idx, region)


def grid_jacobian(region: BallRegion, y) -> float:
    """Spherical volume element at the grid node with multi-index ``y``.

    Equals ``(r y_1/N_1)^{n-1} sin^{n-2}(pi y_3/N_3) ... sin(pi y_n/N_n)``;
    for n = 2 the sine product is empty.
    """
    y = np.asarray(y, dtype=int).reshape(-1)
    counts = np.asarray(region.counts)
    n = region.dim
    if y.size != n:
        raise ValueError("multi-index must have one entry per dimension")
    if np.any(y < 1) or np.any(y > counts):
        raise ValueError("multi-index entries must satisfy 1 <= y_i <= N_i")
    value = (region.r * y[0] / counts[0]) ** (n - 1)
    for k in range(n - 2):
        value *= math.sin(math.pi * y[k + 2] / counts[k + 2]) ** (n - 2 - k)
    return float(value)


def _radius(directions: np.ndarray) -> float:
    if directions.size == 0:
        raise ValueError("sample matrix is empty")
    # sqrt(max sum of squares) rounds exactly like max(norm(axis=0)), without an n x N temporary
    return float(np.sqrt(np.max(np.einsum("ij,ij->j", directions, directions))))


def _directions(sample) -> np.ndarray:
    """The n x N direction array of a ``SampleMatrix`` or of a plain array."""
    if isinstance(sample, SampleMatrix):
        return sample.directions
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2:
        raise ValueError("sample must be a SampleMatrix or an n x N array")
    return arr


def _gram_spectrum(sample) -> tuple[np.ndarray, np.ndarray]:
    """``S S^T`` and its ascending eigenvalues; the cached pair for a ``SampleMatrix``."""
    if isinstance(sample, SampleMatrix):
        return sample.gram_spectrum
    s = _directions(sample)
    gram = s @ s.T
    return gram, np.linalg.eigvalsh(gram)


def sample_radius(sample) -> float:
    """Largest column norm of a sample matrix (or plain direction array).

    For a ``SampleMatrix`` this is its cached ``radius``.
    """
    if isinstance(sample, SampleMatrix):
        return sample.radius
    return _radius(np.asarray(sample, dtype=float))
