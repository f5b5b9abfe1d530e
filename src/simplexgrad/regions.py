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
    "antipodal_half",
    "grid_jacobian",
    "sample_radius",
]

DEFAULT_COLUMN_BUDGET = 10_000_000

# most columns in a block of SampleMatrix's walk, and most nodes in a part of the limit
# quadrature's walk, unless one slice alone is wider (see _block_bounds); fixed when a sample is
# built (its blocks and its stencil-table key), read when a quadrature is called
BLOCK_COLUMNS = 16_384

# The stencil table: the radius and S S^T that a grid sample's walk summed to its end, by
# (tag, counts, extent, BLOCK_COLUMNS). A grid's directions depend on its shape and counts, never
# on x0, so every sample of that geometry built later in this process reads them instead of summing;
# the blocks fix the Gram's summation order, hence BLOCK_COLUMNS, as read when the sample was built,
# in the key. Oldest entry out first.
# It helps only a caller who builds a geometry again: a caller who keeps its sample and reads it at a
# new x0 gets the same skip from the sample's own sums, and a one-shot run never hits the table.
_STENCIL_ENTRIES = 64
_STENCILS: dict[tuple, tuple[float, np.ndarray]] = {}


class BudgetExceededError(ValueError):
    """Requested grid would exceed ``DEFAULT_COLUMN_BUDGET``."""


class _GridRegion:
    """A region with ``x0`` and a grid of ``counts`` cells, at least ``least`` along each axis."""

    least: int

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)


@dataclass(frozen=True)
class HyperrectRegion(_GridRegion):
    """Axis-aligned box ``[x0, x0 + d]`` subdivided into a grid of cells.

    ``x0`` sits at the minimal corner. ``counts[i]`` is the number of equal
    subdivisions of side i, so the grid has ``prod(counts)`` cells of side
    lengths ``d[i] / counts[i]``. A side with ``x0[i] + d[i] == x0[i]``,
    along which every point would round to x0, raises ``ValueError``.
    """

    x0: tuple[float, ...]
    d: tuple[float, ...]
    counts: tuple[int, ...]
    least = 2

    def __post_init__(self):
        object.__setattr__(self, "x0", _finite(self.x0, "x0"))
        object.__setattr__(self, "d", _lengths(self.d))
        object.__setattr__(self, "counts", _integers(self.counts, least=self.least))
        n = _integer(len(self.x0), "dimension", 2)
        if len(self.d) != n or len(self.counts) != n:
            raise ValueError("x0, d and counts must have matching lengths")
        _resolved(self.x0, self.d, "side length")

    @property
    def sublengths(self) -> tuple[float, ...]:
        return tuple(di / ci for di, ci in zip(self.d, self.counts))


@dataclass(frozen=True)
class BallRegion(_GridRegion):
    """Ball of radius ``r`` about ``x0`` with a polar grid of cells.

    ``counts[0]`` subdivides the radius, ``counts[1]`` the full turn of the
    azimuthal angle, and ``counts[2:]`` the half-turn ranges of the polar
    angles. All counts must be >= 3 so the sample matrix has full row rank.
    A radius with ``x0[i] + r == x0[i]`` on some axis i, along which every
    point would round to x0, raises ``ValueError``.
    """

    x0: tuple[float, ...]
    r: float
    counts: tuple[int, ...]
    least = 3

    def __post_init__(self):
        object.__setattr__(self, "x0", _finite(self.x0, "x0"))
        object.__setattr__(self, "r", _lengths((self.r,), "radius")[0])
        object.__setattr__(self, "counts", _integers(self.counts, least=self.least))
        if len(self.counts) != _integer(len(self.x0), "dimension", 2):
            raise ValueError("counts must have one entry per dimension")
        _resolved(self.x0, (self.r,) * self.dim, "radius")


class SampleMatrix:
    """Direction matrix with per-column cell indices, read in column blocks.

    ``directions`` is n x N; ``indices`` is an N x n integer array and holds
    the 1-based multi-index of the cell each column samples (``None`` for a
    plain array wrapped by the estimator or the bounds); any other
    ``indices`` raises ``ValueError``. Both are read-only. A sample
    built from arrays holds them as given; the three builders and the
    antipodal half return a lazy sample that keeps its region and builds
    both arrays only on first access.

    Every sample is cut into blocks here, the antipodal half of a planar
    ball grid included. A sample holds plain data, all fixed when it is
    built: its grid shape in column order, slowest axis first (one flat
    axis of N columns for a sample built from arrays); a lazy sample's
    ``fill``, which writes slowest-axis slices into an array it is given
    (``None`` for a sample built from arrays); its block bounds; its
    stencil-table key; and ``_sums``, the radius and ``S S^T``, or
    ``None`` until a walk sums them. ``_block(lo, hi, buffer)`` returns
    slices ``lo..hi-1`` as an n x b array: a view for a sample built from
    arrays; for a lazy sample, filled into a prefix of ``buffer``, which
    the walk passes, or else into a fresh array. ``_blocks`` yields as
    many whole slices at a time as fit in ``BLOCK_COLUMNS``, and at least
    one; ``_block_bounds`` holds that rule, and the limit quadrature cuts
    its nodes into parts by it too. ``directions`` and the SVD of
    ``singular_range`` get fresh arrays.
    One walk, ``_blocks``, sums the radius and ``S S^T`` the first time it
    runs to its end while ``_sums`` is None, whoever runs it (the
    estimator, ``function_increments``, ``to_csv``, or a bound or
    ``radius`` through ``_walked``), and keeps both in ``_sums``; a sample
    built with its sums (the antipodal half, which takes S's) never sums.
    A grid sample of ``rect_grid_sample`` or ``ball_grid_sample`` has a
    geometry (its tag, counts and extent, d or r, never x0). One read of
    ``BLOCK_COLUMNS`` when the sample is built fixes both its blocks, and
    so the Gram's summation order, and its stencil-table key, the geometry
    and that ``BLOCK_COLUMNS``: a later change of ``BLOCK_COLUMNS`` moves
    neither, and the two cannot disagree. The sample looks its key up in
    the table when it is built, and its walk, run to its end, enters its
    sums there, read-only: so a sample built after a walk of its geometry
    sums nothing, and its bounds walk nothing. A walk stopped early enters
    nothing; array, arbitrary and half samples have no geometry and never
    read or write the table. The radius, the Gram spectrum and
    ``singular_range``, the one reader of S's singular values for the
    estimator's route and cond and for the bounds, are read from there (an
    ill-conditioned S adds one SVD), so a fresh sample is read at most
    once. Each block's sums are the same operations in the same order
    whoever walks, so the radius, the Gram and the estimate are bitwise
    the same whichever reader walks first, whether or not the arrays were
    ever built, and whether the pair came from the table. No sample is a
    reference cycle, so each is freed with its last reference. A sample
    built from arrays must have finite directions.
    """

    def __init__(self, directions: np.ndarray, tag: str, indices: np.ndarray | None):
        if not np.isfinite(directions).all():
            raise ValueError("sample directions must be finite")
        dim, n_columns = directions.shape
        if indices is not None:
            if not (
                isinstance(indices, np.ndarray) and indices.dtype.kind in "iu" and indices.shape == (n_columns, dim)
            ):
                raise ValueError(f"indices must be an (N, n) = {(n_columns, dim)} integer array")
            indices.flags.writeable = False
        directions.flags.writeable = False
        self.__dict__.update(directions=directions, indices=indices)
        self._setup(tag, None, dim, (n_columns,), None)

    @classmethod
    def _lazy(cls, tag: str, region, shape: tuple[int, ...], fill, sums=None, geometry=None) -> SampleMatrix:
        """Sample of a grid of ``shape`` cells (column order), written slice by slice:
        ``fill(out, lo, hi)`` writes slowest-axis slices ``lo..hi-1`` into ``out``, n x (hi - lo)
        x ``shape[1:]``. ``sums``, if given, are the walk's radius and ``S S^T``, fixed now; ``geometry``,
        if given, is the grid's ``(counts, extent)``, which with the tag and ``BLOCK_COLUMNS`` keys the
        sample in the stencil table (see ``SampleMatrix``)."""
        sample = cls.__new__(cls)
        sample._setup(tag, region, region.dim, shape, fill, sums, geometry)
        return sample

    def _setup(self, tag: str, region, dim: int, shape: tuple[int, ...], fill, sums=None, geometry=None) -> None:
        self.tag = tag
        self.region = region
        self.dim = dim
        self.n_columns = math.prod(shape)
        self._shape = shape
        self._fill = fill
        # one read of BLOCK_COLUMNS fixes the blocks, hence the Gram's summation order, and the table key
        columns = BLOCK_COLUMNS
        self._bounds = tuple(_block_bounds(shape[0], math.prod(shape[1:]), columns))
        self._key = None if geometry is None else (tag, *geometry, columns)
        self._sums = _STENCILS.get(self._key) if sums is None and self._key is not None else sums

    def _block(self, lo: int, hi: int, buffer: np.ndarray | None = None) -> np.ndarray:
        """Slowest-axis slices ``lo..hi-1`` as an n x b array: a view of an array sample's
        directions; for a lazy sample, filled into a prefix of ``buffer``, or a fresh array."""
        if self._fill is None:
            return self.directions[:, lo:hi]
        size = (self.dim, hi - lo) + self._shape[1:]
        out = np.empty(size) if buffer is None else buffer[: math.prod(size)].reshape(size)
        self._fill(out, lo, hi)
        return out.reshape(self.dim, -1)

    def _blocks(self):
        """Yield ``(start, block)``: each column block's n x b directions and its first column.
        A walk begun while ``_sums`` is None sums the radius and ``S S^T``, keeps them there and,
        at its end, enters them in the stencil table under the sample's key, if it has one.

        A lazy sample's walk fills every block into a C-contiguous prefix of one buffer, made when
        the walk starts, so a yielded block is valid only until the next block is requested: a
        caller that keeps one longer copies it. An array sample's blocks are views of its array."""
        width = math.prod(self._shape[1:])
        summing = self._sums is None
        max_sq = 0.0
        gram = np.zeros((self.dim, self.dim))
        # a lazy sample's one buffer for the walk, as large as its first (largest) block: slices 0..hi-1
        buffer = None if self._fill is None else np.empty(self.dim * width * self._bounds[0][1])
        for lo, hi in self._bounds:
            block = self._block(lo, hi, buffer)
            if summing:
                # a grid's entries grow in magnitude along its slowest axis, and rounding is monotone, so no
                # column is longer than the last slice's one with the same other indices: scan only the last block
                if self._key is None or hi == self._shape[0]:
                    max_sq = max(max_sq, float(np.max(np.einsum("ij,ij->j", block, block))))
                gram += block @ block.T
            yield lo * width, block
        if summing:
            # sqrt(max sum of squares) rounds exactly like max(norm(axis=0)), without an n x N temporary
            gram.flags.writeable = False
            self._sums = float(np.sqrt(max_sq)), gram
            if self._key is not None:
                _STENCILS[self._key] = self._sums
                if len(_STENCILS) > _STENCIL_ENTRIES:
                    _STENCILS.pop(next(iter(_STENCILS)), None)

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

    def _walked(self) -> tuple[float, np.ndarray]:
        """The radius and ``S S^T``: ``_sums``, summed first by a walk run to its end if it is None."""
        if self._sums is None:
            for _ in self._blocks():
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

    @cached_property
    def singular_range(self) -> tuple[float, float]:
        """``(sigma_min, sigma_max)`` of the n singular values of S.

        Read from the Gram spectrum while cond(S) <= 1e3, where sqrt(lambda_min)
        is off by about cond(S)^2 eps <= 1e-10 relative (Higham, ch. 20); else
        from one SVD of a transient n x N array, so ``directions`` stays
        uncached. sigma_min is 0 when S has fewer columns than rows (the SVD
        gives only N values). Raises ``ValueError`` for an empty sample.
        """
        if self.n_columns == 0:
            raise ValueError("sample matrix is empty")
        _, eigvals = self.gram_spectrum
        lo, hi = float(eigvals[0]), float(eigvals[-1])
        if hi > 0 and lo >= 1e-6 * hi:
            return math.sqrt(lo), math.sqrt(hi)
        sv = np.linalg.svd(self._block(0, self._shape[0]), compute_uv=False)
        return (float(sv[-1]) if self.n_columns >= self.dim else 0.0), float(sv[0])

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


def _block_bounds(slices: int, width: int, columns: int | None = None):
    """Yield ``(lo, hi)`` for each block of whole slices ``lo..hi-1``, ``width`` columns a slice.

    A block holds as many slices as fit in ``columns`` columns (``BLOCK_COLUMNS``,
    read now, if not given), and at least one. This is the one rule that cuts
    point sets: ``SampleMatrix``'s column blocks and the limit quadrature's
    node parts.
    """
    step = max(1, (BLOCK_COLUMNS if columns is None else columns) // width)
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


def _resolved(x0: tuple[float, ...], extents: tuple[float, ...], what: str) -> None:
    """``ValueError`` for the first axis i with ``x0[i] + extents[i] == x0[i]``: there the region,
    and every sample point, would round to x0 (the extent is d_i for a box and r for a ball)."""
    for i, (x, e) in enumerate(zip(x0, extents)):
        if x + e == x:
            raise ValueError(f"{what} {e!r} is below the resolution of x0[{i}] = {x!r} (x0 + {e!r} rounds to x0)")


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
    shape, fill = _far_corners(region)
    return SampleMatrix._lazy("rect-grid", region, shape, fill, geometry=(region.counts, region.d))


def _far_corners(region: HyperrectRegion):
    """The box grid's shape in column order and the ``fill`` that writes its cells' far corners
    (see ``SampleMatrix._lazy``), for the grid and the arbitrary sample; checks the column budget."""
    _check_budget(region.n_cells)
    n = region.dim
    order = _column_order(region)
    steps = zip(region.counts, region.sublengths)
    axes = [_along(np.arange(1, c + 1) * h, order.index(a), n) for a, (c, h) in enumerate(steps)]

    def fill(out, lo, hi):
        for a, v in enumerate(axes):
            out[a] = v[lo:hi] if a == order[0] else v

    return tuple(region.counts[a] for a in order), fill


def rect_arbitrary_sample(region: HyperrectRegion, offsets=None, seed=None) -> SampleMatrix:
    """One direction per cell, at an arbitrary point of the closed cell.

    The sampled point for a cell is its far corner minus ``offsets * h``
    componentwise, with every offset in [0, 1] (0 keeps the far corner,
    1 reaches the near corner; cell boundaries are allowed). Offsets come
    either from ``offsets`` (an (n, N) array) or from a generator seeded by
    ``seed``; giving both raises ``ValueError``. The sample owns one n x N
    array, the shifts ``h * offsets`` (a copy, so a later write to the
    caller's offsets moves no point), and is otherwise lazy like the grid
    sample: each block is filled with the far corners, less its shifts in
    place, and ``directions`` and ``indices`` are built only when read (see
    ``SampleMatrix``). The far corners, and the column budget, are those of
    ``rect_grid_sample``; building the sample reads nothing of the stencil
    table.
    """
    shape, corners = _far_corners(region)
    n, cols = region.dim, region.n_cells
    h = np.asarray(region.sublengths)[:, None]
    if offsets is None:
        shift = np.random.default_rng(seed).random((n, cols))
    else:
        if seed is not None:
            raise ValueError("give offsets or a seed, not both")
        shift = np.array(offsets, dtype=float)  # a copy, so a later write to the caller's offsets moves no point
        if shift.shape != (n, cols):
            raise ValueError(f"offsets must have shape {(n, cols)}, got {shift.shape}")
        if np.any(shift < 0.0) or np.any(shift > 1.0) or not np.all(np.isfinite(shift)):
            raise ValueError("offsets must lie in [0, 1]")
    shift *= h  # in place: the sample keeps this one n x N array
    width = math.prod(shape[1:])

    def fill(out, lo, hi):
        corners(out, lo, hi)
        flat = out.reshape(n, -1)
        np.subtract(flat, shift[:, lo * width : hi * width], out=flat)

    return SampleMatrix._lazy("rect-arbitrary", region, shape, fill)


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
    return _polar_grid(region, "ball-grid", region.counts[1], geometry=(region.counts, region.r))


def antipodal_half(sample: SampleMatrix) -> SampleMatrix | None:
    """Half sample A with the full planar ball grid S equal to [A, -A] up to order, or ``None``.

    Only a 2-d ball grid with an even azimuthal count N2 has one: the
    column at azimuthal index y2 + N2/2 is the negation of the one at y2.
    For any other sample (a rect sample, a ball grid in 3 or more
    dimensions or with an odd N2, an array sample whatever its tag) this
    returns ``None``, so it is the one test of whether a sample mirrors.
    A is the columns with y2 <= N2/2: the polar grid's own lazy sample over
    the first half-turn, n x N/2 and tagged ``ball-half``, on S's region
    and with the cell indices of its columns in S. Its radius and Gram are S's, the Gram halved: S S^T =
    2 A A^T holds for S = [A, -A], so A's Gram spectrum costs one 2 x 2
    eigendecomposition and no pass over A's columns. A's sums are fixed
    when A is built, read from S's then: from S's own walk if one has run
    (as in ``convergence``, which takes A after the estimate), else by
    walking S now; either way A's radius and Gram are bitwise the same. Like
    every sample it is read through ``SampleMatrix``'s one block function,
    which fills the half-turn's columns only when something reads them (the
    SVD route of its ``singular_range``, ``to_csv``); A's own walk never sums.
    """
    if sample.tag != "ball-grid" or sample.region is None or sample.dim != 2 or sample.region.counts[1] % 2 != 0:
        return None
    sums = sample.radius, sample.gram_spectrum[0] / 2.0  # every column norm of S is one of A's
    return _polar_grid(sample.region, "ball-half", sample.region.counts[1] // 2, sums)


def _polar_grid(region: BallRegion, tag: str, azimuths: int, sums=None, geometry=None) -> SampleMatrix:
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

    return SampleMatrix._lazy(tag, region, cells, fill, sums, geometry)


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
