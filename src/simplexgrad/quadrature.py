"""Deterministic integration over boxes and balls.

Tensor-product Gauss-Legendre rules (no randomness), plus exact
gamma-function oracles for monomial integrals over balls. The monomial
oracles are the independent reference values the quadrature is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gsg import ScalarField
from .linalg import gamma_half_integer
from .regions import DEFAULT_COLUMN_BUDGET, _along, _check_budget, _spherical_map

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
    scheme: str = "gauss-legendre"

    def __post_init__(self):
        if self.nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be at least 2")
        if self.scheme != "gauss-legendre":
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")


def _gl_axis(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    q, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (hi - lo)
    return lo + half * (q + 1.0), half * w


def _weight_product(ws: list[np.ndarray]) -> np.ndarray:
    """Tensor product ``w_1 * w_2 * ...`` of per-axis weights, as an n-d grid."""
    n = len(ws)
    weights = _along(ws[0], 0, n)
    for k in range(1, n):
        weights = weights * _along(ws[k], k, n)
    return weights


def _tensor(axes: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    n = len(axes)
    points = np.empty(tuple(q.size for q, _ in axes) + (n,))
    for k, (q, _) in enumerate(axes):
        points[..., k] = _along(q, k, n)
    return points.reshape(-1, n), _weight_product([w for _, w in axes]).reshape(-1)


def box_nodes(d, spec: QuadratureSpec = QuadratureSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, n) and weights (m,) for the box ``[0, d_1] x ... x [0, d_n]``.

    Raises ``BudgetExceededError`` when ``nodes_per_axis ** n`` exceeds
    ``DEFAULT_COLUMN_BUDGET``.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size < 1 or np.any(d <= 0):
        raise ValueError("side lengths must all be positive")
    _check_budget(spec.nodes_per_axis**d.size, DEFAULT_COLUMN_BUDGET, "quadrature nodes")
    return _tensor([_gl_axis(0.0, di, spec.nodes_per_axis) for di in d])


def ball_nodes(n: int, r: float, spec: QuadratureSpec = QuadratureSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, n) and weights (m,) for the ball of radius ``r`` about the origin.

    Built on the spherical parameter box (radius, azimuth, polar angles);
    the returned weights already include the spherical volume element, so
    ``sum(w * g(points))`` approximates the Cartesian integral of ``g``.
    Raises ``BudgetExceededError`` when ``nodes_per_axis ** n`` exceeds
    ``DEFAULT_COLUMN_BUDGET``.
    """
    if n < 2:
        raise ValueError("ball quadrature requires dimension >= 2")
    if r <= 0:
        raise ValueError("radius must be positive")
    m = spec.nodes_per_axis
    _check_budget(m**n, DEFAULT_COLUMN_BUDGET, "quadrature nodes")
    axes = [_gl_axis(0.0, r, m), _gl_axis(0.0, 2.0 * math.pi, m)]
    axes += [_gl_axis(0.0, math.pi, m) for _ in range(n - 2)]
    rho, theta, *phis = [_along(q, k, n) for k, (q, _) in enumerate(axes)]
    points = np.empty((m,) * n + (n,))
    _spherical_map(rho, theta, phis, np.moveaxis(points, -1, 0))
    jac = rho ** (n - 1)
    for i, phi in enumerate(phis):
        jac = jac * np.sin(phi) ** (n - 2 - i)
    weights = _weight_product([w for _, w in axes]) * jac
    return points.reshape(-1, n), weights.reshape(-1)


def _evaluate(g, points: np.ndarray) -> np.ndarray:
    vals = ScalarField(points.shape[1], g)(points)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"integrand returned a non-finite value at node {bad}: {points[bad]}")
    return vals


def integrate_box(g, d, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of ``g`` over ``[0, d_1] x ... x [0, d_n]``.

    ``g`` may be vectorized (accepting an (m, n) array) or scalar-valued on
    single points. Exact for polynomials of per-axis degree up to
    ``2 * nodes_per_axis - 1``.
    """
    points, weights = box_nodes(d, spec)
    return float(weights @ _evaluate(g, points))


def integrate_ball(g, n: int, r: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of ``g`` over the ball of radius ``r`` centered at the origin."""
    points, weights = ball_nodes(n, r, spec)
    return float(weights @ _evaluate(g, points))


def _even_surface_factor(alpha: np.ndarray) -> float:
    beta = 0.5 * (alpha + 1.0)
    num = 2.0
    for b in beta:
        num *= gamma_half_integer(int(round(2 * b)))
    return num / gamma_half_integer(int(round(2 * beta.sum())))


def monomial_ball_integral(alpha, n: int, r: float = 1.0) -> float:
    """Exact integral of ``x^alpha`` over the ball of radius ``r`` in n dims.

    Zero when any exponent is odd; otherwise a closed form in gamma values
    at half-integers.
    """
    alpha = np.asarray(alpha, dtype=int).reshape(-1)
    if alpha.size != n:
        raise ValueError("alpha must have one exponent per dimension")
    if np.any(alpha < 0):
        raise ValueError("exponents must be nonnegative")
    if np.any(alpha % 2 == 1):
        return 0.0
    total = int(alpha.sum())
    return r ** (total + n) / (total + n) * _even_surface_factor(alpha)


def abs_monomial_ball_integral(alpha, n: int, r: float = 1.0) -> float:
    """Exact integral of ``|x_1|^a1 ... |x_n|^an`` over the ball of radius ``r``."""
    alpha = np.asarray(alpha, dtype=int).reshape(-1)
    if alpha.size != n:
        raise ValueError("alpha must have one exponent per dimension")
    if np.any(alpha < 0):
        raise ValueError("exponents must be nonnegative")
    total = int(alpha.sum())
    return r ** (total + n) / (total + n) * _even_surface_factor(alpha)
