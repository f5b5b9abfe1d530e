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

import math
import operator
from dataclasses import dataclass
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

# most columns in a block of SampleMatrix's walk, and most nodes in a part of the limit
# quadrature's walk, unless one slice alone is wider (see _block_bounds); read at call time
BLOCK_COLUMNS = 16_384


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
        object.__setattr__(self, "x0", _finite(self.x0, "x0"))
        object.__setattr__(self, "d", _lengths(self.d))
        object.__setattr__(self, "counts", _integers(self.counts, least=2))
        n = _integer(len(self.x0), "dimension", 2)
        if len(self.d) != n or len(self.counts) != n:
            raise ValueError("x0, d and counts must have matching lengths")

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
        object.__setattr__(self, "x0", _finite(self.x0, "x0"))
        object.__setattr__(self, "r", _lengths((self.r,), "radius")[0])
        object.__setattr__(self, "counts", _integers(self.counts, least=3))
        if len(self.counts) != _integer(len(self.x0), "dimension", 2):
            raise ValueError("counts must have one entry per dimension")

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def n_cells(self) -> int:
        return int(np.prod([float(c) for c in self.counts]))


class SampleMatrix:
    """Direction matrix with per-column cell indices, read in column blocks.

    ``directions`` is n x N; ``indices`` is N x n and holds the 1-based
    multi-index of the cell each column samples (``None`` for a plain array
    wrapped by the estimator or the bounds). Both are read-only. A sample
    built from arrays holds them as given; the grid builders return a lazy
    sample that keeps its region and builds both arrays only on first
    access.

    Every sample is cut into blocks here, the antipodal half of a planar
    ball grid included. A sample holds its grid shape in column order,
    slowest axis first (N columns on one axis without a matching grid
    region), and one ``_block(lo, hi)`` function that returns slowest-axis
    slices ``lo..hi-1`` as an n x b array: a view for a sample built from
    arrays, a freshly filled buffer for a grid builder. ``_blocks`` yields
    as many whole slices at a time as fit in ``BLOCK_COLUMNS``, and at
    least one; ``_block_bounds`` holds that rule, and the limit quadrature
    cuts its nodes into parts by it too.
    One walk (``_walk``) sums the radius and ``S S^T`` while it yields the
    blocks and keeps both in ``_sums`` when it ends; the radius and the
    Gram spectrum, shared by the estimator and the bounds, are read from
    there. The estimator sums ``S df`` on the same walk, so a fresh sample
    is read once; a bound or ``radius`` read first runs the walk alone.
    Each block's sums are the same operations in the same order either
    way, so the radius, the Gram and the estimate are bitwise the same
    whichever consumer walks first, and whether or not the arrays were ever
    built.
    """

    def __init__(
        self,
        directions: np.ndarray,
        tag: str,
        indices: np.ndarray | None,
        region: HyperrectRegion | BallRegion | None = None,
    ):
        directions.flags.writeable = False
        if indices is not None:
            indices.flags.writeable = False
        self.__dict__.update(directions=directions, indices=indices)
        dim, n_columns = directions.shape
        shape = (n_columns,)
        if region is not None and region.n_cells == n_columns:
            shape = tuple(region.counts[a] for a in _column_order(region))
        width = math.prod(shape[1:])
        self._setup(tag, region, dim, shape, lambda lo, hi: directions[:, lo * width : hi * width])

    @classmethod
    def _lazy(
        cls, tag: str, region: HyperrectRegion | BallRegion, shape: tuple[int, ...], fill, sums=None
    ) -> SampleMatrix:
        """Sample of a grid of ``shape`` cells (column order), written slice by slice:
        ``fill(out, lo, hi)`` writes slowest-axis slices ``lo..hi-1`` into ``out``, n x (hi - lo)
        x ``shape[1:]``. ``sums``, if given, are the walk's (see ``_walk``)."""
        dim = region.dim

        def block(lo, hi):
            out = np.empty((dim, hi - lo) + shape[1:])
            fill(out, lo, hi)
            return out.reshape(dim, -1)

        sample = cls.__new__(cls)
        sample._setup(tag, region, dim, shape, block, sums)
        return sample

    def _setup(self, tag: str, region, dim: int, shape: tuple[int, ...], block, sums=None) -> None:
        self.tag = tag
        self.region = region
        self.dim = dim
        self.n_columns = math.prod(shape)
        self._shape = shape
        self._block = block
        self._sums = sums

    def _blocks(self):
        """Yield ``(start, block)``: each column block's n x b directions and its first column."""
        width = math.prod(self._shape[1:])
        for lo, hi in _block_bounds(self._shape[0], width):
            yield lo * width, self._block(lo, hi)

    @cached_property
    def directions(self) -> np.ndarray:
        # elementwise, so all slices in one block give the blocks' values bitwise
        out = self._block(0, self._shape[0])
        out.flags.writeable = False
        return out

    @cached_property
    def indices(self) -> np.ndarray:
        idx = _grid_indices(self._shape, _column_order(self.region))
        idx.flags.writeable = False
        return idx

    def _walk(self):
        """Yield ``_blocks()`` while summing the radius and ``S S^T``.

        The sums are kept in ``_sums`` when the walk ends; once they are, a
        walk only yields the blocks.
        """
        if self._sums is not None:
            yield from self._blocks()
            return
        max_sq = 0.0
        gram = np.zeros((self.dim, self.dim))
        for start, block in self._blocks():
            max_sq = max(max_sq, float(np.max(np.einsum("ij,ij->j", block, block))))
            gram += block @ block.T
            yield start, block
        # sqrt(max sum of squares) rounds exactly like max(norm(axis=0)), without an n x N temporary
        self._sums = float(np.sqrt(max_sq)), gram

    def _walked(self) -> tuple[float, np.ndarray]:
        """The radius and ``S S^T``, from a walk run to its end if none has."""
        if self._sums is None:
            for _ in self._walk():
                pass
        return self._sums

    @cached_property
    def radius(self) -> float:
        """Largest column norm."""
        if self.n_columns == 0:
            raise ValueError("sample matrix is empty")
        return self._walked()[0]

    @cached_property
    def gram_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix ``S S^T`` and its eigenvalues in ascending order (read-only)."""
        gram = self._walked()[1]
        eigvals = np.linalg.eigvalsh(gram)
        gram.flags.writeable = False
        eigvals.flags.writeable = False
        return gram, eigvals

    def to_csv(self, out=None) -> str:
        """Serialize as CSV: n/N/tag header, then one row per column.

        Each row is ``col, i1..in, s1..sn`` (cell multi-index, then
        direction components). Floats are written with round-trip
        precision; line endings are LF. A sample without cell indices (a
        plain array) raises ``ValueError``.
        """
        if self.indices is None:
            raise ValueError("sample has no cell indices to write; to_csv needs a grid or indexed sample")
        n, cols = self.dim, self.n_columns
        head = ",".join([f"i{k + 1}" for k in range(n)] + [f"s{k + 1}" for k in range(n)])
        chunks = [f"n,N,tag\n{n},{cols},{self.tag}\ncol,{head}\n"]
        # rows built column-wise, a block at a time: str of each int, repr (round trip) of each float
        for lo, block in self._blocks():
            hi = lo + block.shape[1]
            fields = [map(str, range(lo + 1, hi + 1))]
            fields += [map(str, v) for v in self.indices[lo:hi].T.tolist()]
            fields += [map(repr, v) for v in block.tolist()]
            chunks += ["\n".join(map(",".join, zip(*fields))), "\n"]
        text = "".join(chunks)
        if out is not None:
            out.write(text)
        return text


def _block_bounds(slices: int, width: int):
    """Yield ``(lo, hi)`` for each block of whole slices ``lo..hi-1``, ``width`` columns a slice.

    A block holds as many slices as fit in ``BLOCK_COLUMNS`` columns, and at
    least one. This is the one rule that cuts point sets: ``SampleMatrix``'s
    column blocks and the limit quadrature's node parts.
    """
    step = max(1, BLOCK_COLUMNS // width)
    for lo in range(0, slices, step):
        yield lo, min(lo + step, slices)


# The input checks: each returns its input converted (operator.index, float) and raises
# ValueError with one message per kind. They run once per call, never per column or node.


def _integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` if it is not an integer (2.5, 4.0, "4") or is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    return value


def _integers(values, what: str = "subdivision counts", least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ``ValueError`` for any that is not an integer or is below ``least``."""
    try:
        ints = tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {tuple(values)}") from None
    if least is not None and any(v < least for v in ints):
        raise ValueError(f"{what} must be >= {least}, got {ints}")
    return ints


def _finite(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; ``ValueError`` unless every one is finite."""
    values = tuple(values)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")
    return tuple(float(v) for v in values)


def _lengths(values, what: str = "side lengths") -> tuple[float, ...]:
    """``values`` (side lengths, or a radius as ``(r,)``) as a tuple of finite, positive floats."""
    values = _finite(values, what)
    if any(v <= 0 for v in values):
        raise ValueError(f"{what} must be positive")
    return values


def _constant(value, what: str) -> float:
    """``value`` (a Lipschitz constant) as a float; ``ValueError`` unless it is finite and nonnegative."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and nonnegative")
    return float(value)


def _check_budget(n_cells: int, unit: str = "columns") -> None:
    if n_cells > DEFAULT_COLUMN_BUDGET:
        raise BudgetExceededError(f"grid would need {n_cells} {unit}; budget is {DEFAULT_COLUMN_BUDGET}")


def _along(v, axis: int, ndim: int) -> np.ndarray:
    """View of the 1-d ``v`` laid along ``axis`` of an ``ndim``-d grid, for broadcasting."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(v, shape)


def _grid_indices(shape: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """All 1-based cell multi-indices as an N x n ``int64`` array.

    ``order`` lists the axes from slowest to fastest varying down the rows,
    and ``shape`` their counts in that order.
    """
    n = len(shape)
    idx = np.empty((math.prod(shape), n), dtype=np.int64)
    grid = idx.reshape(shape + (n,))
    for pos, a in enumerate(order):
        grid[..., a] = _along(np.arange(1, shape[pos] + 1), pos, n)
    return idx


def _spherical_map(rho, theta, phis, out: np.ndarray) -> None:
    """Write the spherical map of (rho, theta, phis) into ``out[0..n-1]``.

    ``theta`` and each of ``phis`` are (cos, sin) pairs of the angles, so a
    caller computes each cos/sin once per axis value.
    ``out[k] = rho sin(phis[0])..sin(phis[k-1]) cos(phis[k])`` for the polar
    angles, then the azimuthal cos/sin pair in the last two rows. The inputs
    broadcast against ``out[k]``.
    """
    n = len(phis) + 2
    running = rho
    for k, (cos_phi, sin_phi) in enumerate(phis):
        np.multiply(running, cos_phi, out=out[k])
        running = running * sin_phi
    np.multiply(running, theta[0], out=out[n - 2])
    np.multiply(running, theta[1], out=out[n - 1])


def _trig(angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.cos(angle), np.sin(angle)


def _column_order(region: HyperrectRegion | BallRegion) -> tuple[int, ...]:
    """Region axes from slowest to fastest varying down the columns of its grid sample."""
    n = region.dim
    if isinstance(region, HyperrectRegion):
        return tuple(range(1, n)) + (0,)  # z_2 slowest, ..., z_n, then j fastest
    return tuple(range(n))


def rect_grid_sample(region: HyperrectRegion) -> SampleMatrix:
    """Directions to the far corner of every cell of the box grid.

    The column for multi-index (j, z_2..z_n) is
    ``(j h_1, z_2 h_2, ..., z_n h_n)`` with h the cell side lengths; the
    matrix has full row rank for all counts >= 2. Columns run with j
    fastest, then z_n, ..., z_2 slowest. The sample is lazy: see
    ``SampleMatrix``. Raises ``BudgetExceededError`` above
    ``DEFAULT_COLUMN_BUDGET`` columns.
    """
    _check_budget(region.n_cells)
    n = region.dim
    order = _column_order(region)
    steps = zip(region.counts, region.sublengths)
    axes = [_along(np.arange(1, c + 1) * h, order.index(a), n) for a, (c, h) in enumerate(steps)]

    def fill(out, lo, hi):
        for a, v in enumerate(axes):
            out[a] = v[lo:hi] if a == order[0] else v

    return SampleMatrix._lazy("rect-grid", region, tuple(region.counts[a] for a in order), fill)


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
    construction has them; they count in N. Columns run with y_n fastest
    and y_1 slowest. The sample is lazy: see ``SampleMatrix``. Raises
    ``BudgetExceededError`` above ``DEFAULT_COLUMN_BUDGET`` columns.
    """
    _check_budget(region.n_cells)
    return _polar_grid(region, "ball-grid", region.counts[1])


def _polar_grid(region: BallRegion, tag: str, azimuths: int, sums=None) -> SampleMatrix:
    """Lazy sample of the polar grid's cells with azimuthal index y_2 <= ``azimuths``.

    The azimuth vector is the whole grid's cut short, so each column is
    bitwise the whole grid's column of the same cell.
    """
    n = region.dim
    counts = region.counts
    cells = (counts[0], azimuths) + counts[2:]  # in column order: y_1 slowest
    y = [np.arange(1, c + 1) for c in cells]
    rho = _along(region.r * y[0] / counts[0], 0, n)
    theta = _trig(_along(2.0 * math.pi * y[1] / counts[1], 1, n))
    phis = [_trig(_along(math.pi * y[k] / counts[k], k, n)) for k in range(2, n)]

    def fill(out, lo, hi):
        _spherical_map(rho[lo:hi], theta, phis, out)

    return SampleMatrix._lazy(tag, region, cells, fill, sums)


def grid_jacobian(region: BallRegion, y) -> float:
    """Spherical volume element at the grid node with multi-index ``y``.

    Equals ``(r y_1/N_1)^{n-1} sin^{n-2}(pi y_3/N_3) ... sin(pi y_n/N_n)``;
    for n = 2 the sine product is empty.
    """
    y = np.asarray(_integers(np.ravel(y).tolist(), "multi-index entries"))
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


def _as_sample(sample) -> SampleMatrix:
    """``sample`` itself, or a plain n x N array wrapped as a sample with no grid region."""
    if isinstance(sample, SampleMatrix):
        return sample
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2:
        raise ValueError("sample must be a SampleMatrix or an n x N array")
    # a view, so that making it read-only leaves the caller's array writeable
    return SampleMatrix(arr.view(), "array", None)


def sample_radius(sample) -> float:
    """Largest column norm of a sample matrix (or plain direction array).

    For a ``SampleMatrix`` this is its cached ``radius``.
    """
    return _as_sample(sample).radius
