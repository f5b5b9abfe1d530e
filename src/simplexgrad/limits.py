"""Dense-sampling limits of the simplex gradient.

As every subdivision count of a structured sample set grows, the gradient
estimate tends to a closed-form expression in moment integrals of the
function increment over the region:

* box: ``inv(prod(d)) * L @ T`` with L the dense-limit matrix and
  ``T_i = integral of x_i (f(x0+x) - f(x0))`` over the box at the origin;
* ball: ``(2 pi / V_{n+2}) * T`` with T the same moments over the ball.

``taylor_diagnostics`` splits T into its Taylor pieces (linear term,
curvature term, remainder), a diagnostic of where the limit's error comes
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import ball_volume, dense_limit_matrix
from .gsg import EvaluationError, ScalarField, _increments
from .quadrature import QuadratureSpec, ball_nodes, box_nodes
from .regions import _block_bounds

__all__ = [
    "CapabilityError",
    "LimitGradientResult",
    "box_moment_vector",
    "ball_moment_vector",
    "limit_gradient_box",
    "limit_gradient_ball",
    "taylor_diagnostics",
]


class CapabilityError(ValueError):
    """The field lacks an analytic derivative required by the computation."""


@dataclass(frozen=True)
class LimitGradientResult:
    """Limit estimate plus the parts it was assembled from."""

    estimate: np.ndarray
    moments: np.ndarray
    region_kind: str  # "box" | "ball"
    region_params: tuple[float, ...]  # sides d, or (radius,)
    x0: np.ndarray
    nodes_per_axis: int


def _moments(field: ScalarField, x0, m: int, build) -> np.ndarray:
    """``sum_j w_j (f(x0 + p_j) - f(x0)) p_j`` over an ``m``-per-axis rule, built and summed part by part.

    ``build(part)`` returns one part's nodes and weights. The parts are as
    many whole first-axis slices as fit in ``BLOCK_COLUMNS`` nodes, and at
    least one, so no ``m^n`` array is formed. f(x0) is evaluated once.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    moments = np.zeros(field.dim)
    weights = []  # each part's weights, popped below: _increments consumes one block per yield

    def blocks():
        start = 0
        for part in _block_bounds(m, m ** (field.dim - 1)):
            points, w = build(part)
            weights.append(w)
            yield start, points.T
            start += w.size

    with np.errstate(over="ignore", invalid="ignore"):
        for _, block, increments in _increments(field, x0, blocks(), unit="node"):
            moments += (weights.pop() * increments) @ block.T
    if not np.isfinite(moments).all():
        raise EvaluationError(-1, x0, f"moments overflow: {moments}", unit="node")
    return moments


def box_moment_vector(field: ScalarField, x0, d, spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Moments ``integral of x_i (f(x0+x) - f(x0))`` over ``[0,d_1]x...x[0,d_n]``."""
    return _moments(field, x0, spec.nodes_per_axis, lambda part: box_nodes(d, spec, part))


def ball_moment_vector(field: ScalarField, x0, r: float, spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Moments ``integral of x_i (f(x0+x) - f(x0))`` over the ball of radius r."""
    return _moments(field, x0, spec.nodes_per_axis, lambda part: ball_nodes(field.dim, r, spec, part))


def limit_gradient_box(field: ScalarField, x0, d, spec: QuadratureSpec = QuadratureSpec()) -> LimitGradientResult:
    """Dense-grid limit of the simplex gradient over the box ``[x0, x0+d]``."""
    d = np.asarray(d, dtype=float).reshape(-1)
    moments = box_moment_vector(field, x0, d, spec)
    limit = dense_limit_matrix(d)
    estimate = limit.matrix @ moments / float(np.prod(d))
    return LimitGradientResult(
        estimate=estimate,
        moments=moments,
        region_kind="box",
        region_params=tuple(map(float, d)),
        x0=np.asarray(x0, dtype=float).reshape(-1),
        nodes_per_axis=spec.nodes_per_axis,
    )


def limit_gradient_ball(field: ScalarField, x0, r: float, spec: QuadratureSpec = QuadratureSpec()) -> LimitGradientResult:
    """Dense-sampling limit of the simplex gradient over the ball ``B(x0; r)``.

    Equals ``(2 pi / V_{n+2}(r)) * T`` with T the ball moment vector; exact
    for every polynomial of degree <= 2 (zero curvature contribution by
    symmetry of the ball).
    """
    moments = ball_moment_vector(field, x0, r, spec)
    estimate = 2.0 * math.pi / ball_volume(field.dim + 2, r) * moments
    return LimitGradientResult(
        estimate=estimate,
        moments=moments,
        region_kind="ball",
        region_params=(float(r),),
        x0=np.asarray(x0, dtype=float).reshape(-1),
        nodes_per_axis=spec.nodes_per_axis,
    )


def taylor_diagnostics(
    field: ScalarField,
    x0,
    d=None,
    r: float | None = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> dict[str, np.ndarray]:
    """Taylor split of the moment vector over a box (``d``) or ball (``r``).

    Returns ``{"v": ..., "w": ...}`` for a box and
    ``{"v": ..., "w": ..., "z": ...}`` for a ball, where

    * v: moments of the linear term ``grad f(x0)^T x``,
    * w: box -- moments of the first-order remainder;
         ball -- moments of the curvature term ``(1/2) x^T H x``,
    * z: ball only -- moments of the second-order remainder, computed by
      subtraction ``T - v - w`` (the remainder has no closed form).

    Requires an analytic gradient (and, for the ball split, a Hessian).
    """
    if (d is None) == (r is None):
        raise ValueError("exactly one of d (box) or r (ball) must be given")
    if field.grad is None:
        raise CapabilityError("taylor_diagnostics requires an analytic gradient")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    g = field.gradient(x0)
    if d is not None:
        points, weights = box_nodes(np.asarray(d, dtype=float), spec)
        v = (weights * (points @ g)) @ points
        return {"v": v, "w": box_moment_vector(field, x0, d, spec) - v}
    if field.hess is None:
        raise CapabilityError("the ball split requires an analytic Hessian")
    points, weights = ball_nodes(field.dim, float(r), spec)
    linear = points @ g
    v = (weights * linear) @ points
    h = field.hessian(x0)
    curvature = 0.5 * np.einsum("mi,ij,mj->m", points, h, points)
    w = (weights * curvature) @ points
    return {"v": v, "w": w, "z": ball_moment_vector(field, x0, float(r), spec) - v - w}
