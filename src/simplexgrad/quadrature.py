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


def _weight_product(ws: list[np.ndarray]) -> np.ndarray:
    """Tensor product ``w_1 * w_2 * ...`` of per-axis weights, as an n-d grid."""
    n = len(ws)
    weights = _along(ws[0], 0, n)
    for k in range(1, n):
        weights = weights * _along(ws[k], k, n)
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


def box_nodes(d, spec: QuadratureSpec = QuadratureSpec(), part=None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (b, n) and weights (b,) for the box ``[0, d_1] x ... x [0, d_n]``.

    Nodes run with x_1 slowest. ``part=(lo, hi)`` returns only the nodes
    whose x_1 index is in ``lo..hi-1`` (b = (hi - lo) m^(n-1)), bitwise
    equal to those rows of the full call; the full call is the part
    ``(0, m)``. Raises ``ValueError`` for a bad part and
    ``BudgetExceededError`` when ``nodes_per_axis ** n`` exceeds
    ``DEFAULT_COLUMN_BUDGET``.
    """
    d = np.array(_lengths(np.ravel(d)))
    m = spec.nodes_per_axis
    _check_budget(m ** _integer(d.size, "dimension", 1), "quadrature nodes")
    lo, hi = _part(part, m)
    (q, w), *rest = [_gl_axis(0.0, di, m) for di in d]
    axes = [(q[lo:hi], w[lo:hi])] + rest
    n = len(axes)
    points = np.empty(tuple(q.size for q, _ in axes) + (n,))
    for k, (q, _) in enumerate(axes):
        points[..., k] = _along(q, k, n)
    return points.reshape(-1, n), _weight_product([w for _, w in axes]).reshape(-1)


@functools.lru_cache(maxsize=32)
def _ball_axes(n: int, r: float, m: int):
    """The ball rule's per-axis factors, computed once per ``(n, r, m)`` (read-only).

    Returns ``(rho, theta, phis, ws, jac)``, each laid along its grid axis:
    the radius abscissae, the (cos, sin) pairs of the azimuth and of each
    polar angle, the per-axis weights, and the volume element's per-axis
    factors ``rho^(n-1), sin^(n-2)(phi_1), ..., sin(phi_(n-2))``.
    """
    axes = [_gl_axis(0.0, r, m), _gl_axis(0.0, 2.0 * math.pi, m)]
    axes += [_gl_axis(0.0, math.pi, m) for _ in range(n - 2)]
    rho, theta, *phis = [_along(q, k, n) for k, (q, _) in enumerate(axes)]
    theta, phis = _trig(theta), [_trig(phi) for phi in phis]
    ws = [w for _, w in axes]
    jac = [rho ** (n - 1)] + [sin_phi ** (n - 2 - i) for i, (_, sin_phi) in enumerate(phis)]
    _read_only(rho, *theta, *(a for pair in phis for a in pair), *ws, *jac)
    return rho, theta, phis, ws, jac


def ball_nodes(n: int, r: float, spec: QuadratureSpec = QuadratureSpec(), part=None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (b, n) and weights (b,) for the ball of radius ``r`` about the origin.

    Built on the spherical parameter box (radius, azimuth, polar angles),
    with the radius slowest; the returned weights already include the
    spherical volume element, so ``sum(w * g(points))`` approximates the
    Cartesian integral of ``g``. ``part=(lo, hi)`` returns only the nodes
    whose radius index is in ``lo..hi-1`` (b = (hi - lo) m^(n-1)), bitwise
    equal to those rows of the full call; the full call is the part
    ``(0, m)``. Each part computes only its own nodes, from per-axis
    factors cached once per ``(n, r, m)``. Raises ``ValueError`` for a bad
    part and ``BudgetExceededError`` when ``nodes_per_axis ** n`` exceeds
    ``DEFAULT_COLUMN_BUDGET``.
    """
    n = _integer(n, "dimension", 2)
    r = _lengths((r,), "radius")[0]
    m = spec.nodes_per_axis
    _check_budget(m**n, "quadrature nodes")
    lo, hi = _part(part, m)
    rho, theta, phis, ws, (radial, *polar) = _ball_axes(n, r, m)
    points = np.empty((hi - lo,) + (m,) * (n - 1) + (n,))
    _spherical_map(rho[lo:hi], theta, phis, np.moveaxis(points, -1, 0))
    jac = radial[lo:hi]
    for factor in polar:
        jac = jac * factor
    weights = _weight_product([ws[0][lo:hi]] + ws[1:])
    weights *= jac
    return points.reshape(-1, n), weights.reshape(-1)


def _parts(n: int, m: int, build):
    """Yield ``(start, points, weights)`` for each part of an ``m``-per-axis rule in ``n`` dimensions.

    ``build(part)`` returns one part's nodes and weights, and ``start`` is
    the index of its first node in the whole rule. The parts are as many
    whole first-axis slices as fit in ``BLOCK_COLUMNS`` nodes, and at least
    one (``_block_bounds``), so no ``m^n`` array is formed.
    """
    start = 0
    for part in _block_bounds(m, m ** (n - 1)):
        points, weights = build(part)
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
    ``2 * nodes_per_axis - 1``. The rule is built and summed part by part.
    """
    return _integrate(g, np.size(d), spec.nodes_per_axis, lambda part: box_nodes(d, spec, part))


def integrate_ball(g, n: int, r: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of ``g`` over the ball of radius ``r`` centered at the origin, summed part by part."""
    return _integrate(g, n, spec.nodes_per_axis, lambda part: ball_nodes(n, r, spec, part))


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
