"""Deterministic integration over boxes and balls.

Tensor-product Gauss-Legendre rules (no randomness), plus exact
gamma-function oracles for monomial integrals over balls. The monomial
oracles are the independent reference values the quadrature is tested
against.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gsg import ScalarField
from .linalg import gamma_half_integer
from .regions import _along, _block_bounds, _check_budget, _integer, _integers, _lengths, _spherical_map, _trig

__all__ = [
    "QuadratureSpec",
    "box_nodes",
    "ball_nodes",
    "integrate_box",
    "integrate_ball",
    "monomial_ball_integral",
    "abs_monomial_ball_integral",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Legendre rule: ``nodes_per_axis`` points on every axis."""

    nodes_per_axis: int = 32

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_axis", _integer(self.nodes_per_axis, "nodes_per_axis", 2))


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=32)
def _legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per ``m`` (read-only)."""
    q, w = np.polynomial.legendre.leggauss(m)
    _read_only(q, w)
    return q, w


def _gl_axis(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    q, w = _legendre(m)
    half = 0.5 * (hi - lo)
    return lo + half * (q + 1.0), half * w


def _weight_product(ws: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Tensor product ``w_1 * w_2 * ...`` of per-axis weights, as an n-d grid written into ``out`` (fresh if None).

    The factors are multiplied in axis order, ``(w_1 * w_2) * w_3 ...``, one
    in-place product over the grid each.
    """
    n = len(ws)
    weights = np.empty(tuple(w.size for w in ws)) if out is None else out
    np.copyto(weights, _along(ws[0], 0, n))
    for k in range(1, n):
        weights *= _along(ws[k], k, n)
    return weights


def _part(part, m: int) -> tuple[int, int]:
    """``part`` as first-axis bounds ``0 <= lo < hi <= m``; ``None`` is the whole axis."""
    if part is None:
        return 0, m
    try:
        lo, hi = map(operator.index, part)
    except (TypeError, ValueError):
        raise ValueError(f"part must be two integers (lo, hi), got {part!r}") from None
    if not 0 <= lo < hi <= m:
        raise ValueError(f"part must satisfy 0 <= lo < hi <= {m}, got {part!r}")
    return lo, hi


def _buffers(out, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat prefixes of ``out`` = (points, weights) for ``b`` nodes in ``n`` dimensions: ``n b`` and ``b`` floats.

    ``None`` gives two fresh buffers of exactly that size. A buffer that is
    not a flat, C-contiguous float64 array long enough raises ``ValueError``.
    """
    if out is None:
        return np.empty(n * b), np.empty(b)
    points, weights = out
    for buffer, size in ((points, n * b), (weights, b)):
        if not (isinstance(buffer, np.ndarray) and buffer.dtype == np.float64 and buffer.ndim == 1
                and buffer.flags.c_contiguous and buffer.size >= size):
            raise ValueError(f"out must be two flat, C-contiguous float64 arrays of at least {n * b} and {b} elements")
    return points[: n * b], weights[:b]


def box_nodes(d, spec: QuadratureSpec = QuadratureSpec(), part=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (b, n) and weights (b,) for the box ``[0, d_1] x ... x [0, d_n]``.

    Nodes run with x_1 slowest. ``part=(lo, hi)`` returns only the nodes
    whose x_1 index is in ``lo..hi-1`` (b = (hi - lo) m^(n-1)), bitwise
    equal to those rows of the full call; the full call is the part
    ``(0, m)``. ``out=(points, weights)``, two flat float64 buffers of at
    least ``n b`` and ``b`` elements, receives the nodes and weights in a
    C-contiguous prefix of each, and the returned arrays are views of them
    (the nodes as C-ordered rows), valid until ``out`` is written again;
    ``out=None`` fills two fresh buffers of exactly that size. Raises
    ``ValueError`` for a bad part or ``out`` and ``BudgetExceededError``
    when ``nodes_per_axis ** n`` exceeds ``DEFAULT_COLUMN_BUDGET``.
    """
    d = np.array(_lengths(np.ravel(d)))
    m = spec.nodes_per_axis
    n = _integer(d.size, "dimension", 1)
    _check_budget(m**n, "quadrature nodes")
    lo, hi = _part(part, m)
    (q, w), *rest = [_gl_axis(0.0, di, m) for di in d]
    axes = [(q[lo:hi], w[lo:hi])] + rest
    grid = tuple(q.size for q, _ in axes)
    points, weights = _buffers(out, math.prod(grid), n)
    points = points.reshape(grid + (n,))
    for k, (q, _) in enumerate(axes):
        points[..., k] = _along(q, k, n)
    _weight_product([w for _, w in axes], weights.reshape(grid))
    return points.reshape(-1, n), weights


@functools.lru_cache(maxsize=4)
def _ball_axes(n: int, r: float, m: int):
    """The ball rule's radial and angular factors, computed once per ``(n, r, m)`` (read-only).

    Returns ``(rho, radial, units, angular)``: the radius abscissae and
    their weights times ``rho^(n-1)`` (m,), the unit directions of the
    angular nodes (n x m^(n-1), C-contiguous, the azimuth slowest, then
    the polar angles), and their weights ``w_theta * prod_k w_phi_k
    sin^(n-2-k)(phi_k)`` (m^(n-1),). Each entry holds one radial slice of
    nodes (``units`` is n m^(n-1) floats: 393 KB for the 128^3 rule), so
    only a handful of entries are kept.
    """
    axes = [_gl_axis(0.0, r, m), _gl_axis(0.0, 2.0 * math.pi, m)]
    axes += [_gl_axis(0.0, math.pi, m) for _ in range(n - 2)]
    (rho, w_rho), (theta, w_theta), *polar = axes
    units = np.empty((n,) + (m,) * (n - 1))
    phis = [_trig(_along(phi, k, n - 1)) for k, (phi, _) in enumerate(polar, 1)]
    _spherical_map(1.0, _trig(_along(theta, 0, n - 1)), phis, units)
    angular = _weight_product([w_theta] + [w * np.sin(phi) ** (n - 2 - k) for k, (phi, w) in enumerate(polar)])
    radial, units, angular = w_rho * rho ** (n - 1), units.reshape(n, -1), angular.reshape(-1)
    _read_only(rho, radial, units, angular)
    return rho, radial, units, angular


def ball_nodes(
    n: int, r: float, spec: QuadratureSpec = QuadratureSpec(), part=None, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (b, n) and weights (b,) for the ball of radius ``r`` about the origin.

    Built on the spherical parameter box (radius, azimuth, polar angles),
    with the radius slowest; the returned weights already include the
    spherical volume element, so ``sum(w * g(points))`` approximates the
    Cartesian integral of ``g``. ``part=(lo, hi)`` returns only the nodes
    whose radius index is in ``lo..hi-1`` (b = (hi - lo) m^(n-1)), bitwise
    equal to those rows of the full call; the full call is the part
    ``(0, m)``. Each radial slice is its radius times the unit directions
    of the angular sub-rule, and its weights the radial weight times the
    angular weights, both cached once per ``(n, r, m)`` (``_ball_axes``).
    The points are coordinate-major: ``points.T`` is a C-contiguous
    n x b array (the box's nodes are C-ordered rows). ``out=(points,
    weights)``, two flat float64 buffers of at least ``n b`` and ``b``
    elements, receives ``points.T`` and the weights in a C-contiguous
    prefix of each, and the returned arrays are views of them, valid until
    ``out`` is written again; ``out=None`` fills two fresh buffers of
    exactly that size. Raises ``ValueError`` for a bad part or ``out`` and
    ``BudgetExceededError`` when ``nodes_per_axis ** n`` exceeds
    ``DEFAULT_COLUMN_BUDGET``.
    """
    n = _integer(n, "dimension", 2)
    r = _lengths((r,), "radius")[0]
    m = spec.nodes_per_axis
    _check_budget(m**n, "quadrature nodes")
    lo, hi = _part(part, m)
    rho, radial, units, angular = _ball_axes(n, r, m)
    points, weights = _buffers(out, (hi - lo) * angular.size, n)
    np.multiply(units[:, None, :], rho[lo:hi, None], out=points.reshape(n, hi - lo, -1))
    np.multiply(radial[lo:hi, None], angular, out=weights.reshape(hi - lo, -1))
    return points.reshape(n, -1).T, weights


def _parts(n: int, m: int, build):
    """Yield ``(start, points, weights)`` for each part of an ``m``-per-axis rule in ``n`` dimensions.

    ``build(part, out)`` returns one part's nodes and weights, built into
    the buffers ``out`` (see ``box_nodes``), and ``start`` is the index of
    its first node in the whole rule. The parts are as many whole
    first-axis slices as fit in ``BLOCK_COLUMNS`` nodes, and at least one
    (``_block_bounds``), so no ``m^n`` array is formed. The first part,
    the largest, is built with ``out=None``, into two fresh buffers that
    its builder sizes for it in the rule's own dimension; every later part
    is built into those two, so a walk allocates its nodes once and a
    part's arrays are valid only until the next part is built.
    """
    start, out = 0, None
    for part in _block_bounds(m, m ** (n - 1)):
        points, weights = build(part, out)
        if out is None:
            # the first part's arrays fill their buffers whole and contiguously, so ravel views them
            out = points.ravel("K"), weights
        yield start, points, weights
        start += weights.size


def _integrate(g, n: int, m: int, build) -> float:
    """``sum_j w_j g(p_j)`` over the parts of an ``m``-per-axis rule (see ``_parts``)."""
    field = ScalarField(n, g)
    total = 0.0
    for start, points, weights in _parts(n, m, build):
        vals = field(points)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"integrand returned a non-finite value at node {start + bad}: {points[bad]}")
        total += weights @ vals
    return float(total)


def integrate_box(g, d, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of ``g`` over ``[0, d_1] x ... x [0, d_n]``.

    ``g`` may be vectorized (accepting an (m, n) array) or scalar-valued on
    single points. Exact for polynomials of per-axis degree up to
    ``2 * nodes_per_axis - 1``. The rule is built and summed part by part
    (``_parts``): ``g`` gets each part's nodes as a view of the walk's
    buffers, valid during that call only, so a ``g`` that keeps its input
    must copy it.
    """
    return _integrate(g, np.size(d), spec.nodes_per_axis, lambda part, out: box_nodes(d, spec, part, out))


def integrate_ball(g, n: int, r: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of ``g`` over the ball of radius ``r`` centered at the origin, summed as ``integrate_box`` sums."""
    return _integrate(g, n, spec.nodes_per_axis, lambda part, out: ball_nodes(n, r, spec, part, out))


def _even_surface_factor(alpha: np.ndarray) -> float:
    beta = 0.5 * (alpha + 1.0)
    num = 2.0
    for b in beta:
        num *= gamma_half_integer(int(round(2 * b)))
    return num / gamma_half_integer(int(round(2 * beta.sum())))


def _abs_monomial(alpha, n: int, r: float) -> tuple[np.ndarray, float]:
    """The checked exponents, and the exact integral of ``|x_1|^a1 ... |x_n|^an`` over the ball."""
    n = _integer(n, "dimension", 1)
    alpha = np.asarray(_integers(np.ravel(alpha).tolist(), "exponents", 0))
    if alpha.size != n:
        raise ValueError("alpha must have one exponent per dimension")
    r = _lengths((r,), "radius")[0]
    total = int(alpha.sum())
    return alpha, r ** (total + n) / (total + n) * _even_surface_factor(alpha)


def monomial_ball_integral(alpha, n: int, r: float = 1.0) -> float:
    """Exact integral of ``x^alpha`` over the ball of radius ``r`` in n dims.

    Zero when any exponent is odd; otherwise a closed form in gamma values
    at half-integers.
    """
    alpha, value = _abs_monomial(alpha, n, r)
    return 0.0 if np.any(alpha % 2 == 1) else value


def abs_monomial_ball_integral(alpha, n: int, r: float = 1.0) -> float:
    """Exact integral of ``|x_1|^a1 ... |x_n|^an`` over the ball of radius ``r``."""
    return _abs_monomial(alpha, n, r)[1]
