"""Dense-sampling limits of the simplex gradient.

As every subdivision count of a structured sample set grows, the gradient
estimate tends to a closed-form expression in moment integrals of the
function increment over the region:

* box: ``inv(prod(d)) * L @ T`` with L the dense-limit matrix and
  ``T_i = integral of x_i (f(x0+x) - f(x0))`` over the box at the origin;
* ball: ``(2 pi / V_{n+2}) * T`` with T the same moments over the ball.

``taylor_diagnostics`` splits T into its Taylor pieces (linear term,
curvature term, remainder), a diagnostic of where the limit's error comes
from. Only T is summed by quadrature; the linear and curvature pieces have
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import ball_volume, dense_limit_matrix
from .gsg import EvaluationError, ScalarField, _increments, _quiet_overflow
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


def _parts(n: int, m: int, build):
    """Yield ``(start, nodes, weights)`` for each part of an ``m``-per-axis rule in ``n`` dimensions.

    ``build(part, out)`` returns one part's points (b, n) and weights,
    built into the buffers ``out`` (see ``quadrature.box_nodes``);
    ``nodes`` is ``points.T``, one column a node, and ``start`` is the
    index of the part's first node in the whole rule. The parts are as many
    whole first-axis slices as fit in ``BLOCK_COLUMNS`` nodes, and at least
    one (``regions._block_bounds``), so no ``m^n`` array is formed. The
    first part, the largest, is built with ``out=None``, into two fresh
    buffers that its builder sizes for it in the rule's own dimension;
    every later part is built into those two, so a walk allocates its
    nodes once and a part's arrays are valid only until the next part is
    built.
    """
    start, out = 0, None
    for part in _block_bounds(m, m ** (n - 1)):
        points, weights = build(part, out)
        if out is None:
            # the first part's arrays fill their buffers whole and contiguously, so ravel views them
            out = points.ravel("K"), weights
        yield start, points.T, weights
        start += weights.size


def _moments(field: ScalarField, x0, m: int, build) -> np.ndarray:
    """Moment vector ``T = sum_j w_j t(p_j) p_j`` over an ``m``-per-axis rule, built and summed part by part.

    t is the increment ``f(x0 + p) - f(x0)``; f(x0) is evaluated once.
    ``build(part, out)`` returns one part's nodes and weights, built into
    the walk's two node buffers (see ``_parts``: allocated for the first,
    largest part and reused for every later one), so a part's nodes and
    weights are read before the next part overwrites them. Each
    part's weights ride through the shared increments walk as its block's
    payload, and scale its increments in place; the points the field gets
    are fresh per part (``gsg._increments``).
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    moments = np.zeros(field.dim)
    with _quiet_overflow():
        for _, block, increments, w in _increments(field, x0, _parts(field.dim, m, build), unit="node"):
            increments *= w
            moments += increments @ block.T
    if not np.isfinite(moments).all():
        raise EvaluationError(-1, x0, f"moments overflow: {moments}", unit="node")
    return moments


def box_moment_vector(field: ScalarField, x0, d, spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Moments ``integral of x_i (f(x0+x) - f(x0))`` over ``[0,d_1]x...x[0,d_n]``."""
    return _moments(field, x0, spec.nodes_per_axis, lambda part, out: box_nodes(d, spec, part, out))


def ball_moment_vector(field: ScalarField, x0, r: float, spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Moments ``integral of x_i (f(x0+x) - f(x0))`` over the ball of radius r."""
    return _moments(field, x0, spec.nodes_per_axis, lambda part, out: ball_nodes(field.dim, r, spec, part, out))


def _result(kind: str, params, x0, spec: QuadratureSpec, moments, estimate) -> LimitGradientResult:
    """The result of a box or ball limit, with the moments its estimate was assembled from."""
    return LimitGradientResult(
        estimate=estimate,
        moments=moments,
        region_kind=kind,
        region_params=tuple(map(float, params)),
        x0=np.asarray(x0, dtype=float).reshape(-1),
        nodes_per_axis=spec.nodes_per_axis,
    )


def limit_gradient_box(field: ScalarField, x0, d, spec: QuadratureSpec = QuadratureSpec()) -> LimitGradientResult:
    """Dense-grid limit of the simplex gradient over the box ``[x0, x0+d]``."""
    d = np.asarray(d, dtype=float).reshape(-1)
    moments = box_moment_vector(field, x0, d, spec)
    return _result("box", d, x0, spec, moments, dense_limit_matrix(d) @ moments / float(np.prod(d)))


def _ball_limit_factor(n: int, r: float) -> float:
    """``2 pi / V_{n+2}(r)``; ``ValueError`` naming the radius when it is not finite."""
    volume = ball_volume(n + 2, r)
    factor = 2.0 * math.pi / volume if volume else math.inf
    if not math.isfinite(factor):
        raise ValueError(f"radius {float(r)!r} is too small for the ball limit (2 pi / V_{n + 2}(r) is not finite)")
    return factor


def limit_gradient_ball(field: ScalarField, x0, r: float, spec: QuadratureSpec = QuadratureSpec()) -> LimitGradientResult:
    """Dense-sampling limit of the simplex gradient over the ball ``B(x0; r)``.

    Equals ``(2 pi / V_{n+2}(r)) * T`` with T the ball moment vector; exact
    for every polynomial of degree <= 2 (zero curvature contribution by
    symmetry of the ball). A radius so small that ``2 pi / V_{n+2}(r)`` is
    not finite (below about 9e-78 in 2-d and 2e-62 in 3-d) raises
    ``ValueError`` before the quadrature runs.
    """
    factor = _ball_limit_factor(field.dim, r)
    moments = ball_moment_vector(field, x0, r, spec)
    return _result("ball", (r,), x0, spec, moments, factor * moments)


def taylor_diagnostics(
    field: ScalarField,
    x0,
    d=None,
    r: float | None = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> dict[str, np.ndarray]:
    """Taylor split of the moment vector T over a box (``d``) or ball (``r``).

    Returns ``{"v": ..., "w": ...}`` for a box and
    ``{"v": ..., "w": ..., "z": ...}`` for a ball, with g the gradient at x0:

    * v: moments of the linear term ``g^T x``, in closed form --
      box: ``prod(d) * d * (d * g + 3 (d . g)) / 12``;
      ball: ``V_{n+2}(r) / (2 pi) * g``;
    * w: box -- moments of the first-order remainder, ``T - v``;
         ball -- moments of the curvature term ``(1/2) x^T H x``, exactly 0
         by the ball's symmetry;
    * z: ball only -- moments of the second-order remainder, ``T - v``.

    Requires an analytic gradient. T is the one quadrature walk, taken
    before g is read.
    """
    if (d is None) == (r is None):
        raise ValueError("exactly one of d (box) or r (ball) must be given")
    if field.grad is None:
        raise CapabilityError("taylor_diagnostics requires an analytic gradient")
    if d is not None:
        t = box_moment_vector(field, x0, d, spec)
        d, g = np.asarray(d, dtype=float).reshape(-1), field.gradient(x0)
        v = np.prod(d) * d * (d * g + 3.0 * (d @ g)) / 12.0
        return {"v": v, "w": t - v}
    t = ball_moment_vector(field, x0, r, spec)
    v = ball_volume(field.dim + 2, r) / (2.0 * math.pi) * field.gradient(x0)
    return {"v": v, "w": np.zeros_like(t), "z": t - v}
