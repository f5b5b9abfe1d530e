"""Error bounds for the simplex gradient.

Two families:

* classical bounds for a finite sample matrix, growing with sqrt(N) and
  the conditioning of the normalized sample;
* bounds on the dense-sampling limit ("limit bounds"), which do not
  depend on the number of samples at all -- only on the region shape
  and a Lipschitz constant supplied by the caller.

Lipschitz constants are never estimated here; callers pass analytic
values valid on the relevant region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import ball_gamma_ratio
from .regions import _as_sample, _constant, _integer, _lengths, sample_radius

__all__ = [
    "RankDeficiencyError",
    "BoundReport",
    "classical_bound",
    "centered_bound",
    "limit_bound_box",
    "limit_bound_ball",
]


class RankDeficiencyError(ValueError):
    """The sample matrix does not have full row rank."""


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the constants that produced it."""

    value: float
    kind: str  # classical | classical-centered | limit-box | limit-hypercube | limit-ball
    constants: dict = field(default_factory=dict)


# The Gram route is taken only while cond(S) <= 1e3, where sqrt(lambda_min) has a
# relative error of about cond(S)^2 eps <= 1e-10 (Higham, ch. 20). Worse-conditioned
# samples, rank-deficient ones included, take the SVD of S / delta.
_GRAM_ROUTE_MIN_RATIO = 1e-6


def _min_max_singular(sample, delta: float) -> tuple[float, float]:
    """Smallest and largest of the n singular values of ``S / delta``.

    Read from the sample's shared Gram spectrum when S is well
    conditioned, else from an SVD of the full direction array. A sample
    with fewer columns than rows has sigma_min = 0, which the SVD, giving
    only min(n, N) values, does not return. Raises ``ValueError`` for an
    empty sample.
    """
    if sample.n_columns == 0:
        raise ValueError("sample matrix is empty")
    _, eigvals = sample.gram_spectrum
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    if hi > 0 and lo >= _GRAM_ROUTE_MIN_RATIO * hi:
        return math.sqrt(lo) / delta, math.sqrt(hi) / delta
    sv = np.linalg.svd(sample.directions / delta, compute_uv=False)
    smin = float(sv[-1]) if sample.n_columns >= sample.dim else 0.0
    return smin, float(sv[0])


def classical_bound(sample, grad_lipschitz: float) -> BoundReport:
    """Finite-sample bound ``(sqrt(N)/2) L |pinv(Shat^T)| Delta``.

    ``Shat`` is the sample scaled by its radius Delta (largest column
    norm); ``|pinv(Shat^T)|`` equals ``1 / sigma_min(Shat)`` for a
    full-row-rank sample. ``grad_lipschitz`` must be valid on the ball of
    radius Delta about the reference point.
    """
    grad_lipschitz = _constant(grad_lipschitz, "grad_lipschitz")
    sample = _as_sample(sample)
    cols = sample.n_columns
    radius = sample_radius(sample)
    smin, smax = _min_max_singular(sample, radius)
    if smin <= 1e-12 * smax:
        raise RankDeficiencyError("sample matrix must have full row rank")
    value = math.sqrt(cols) / 2.0 * grad_lipschitz * (1.0 / smin) * radius
    return BoundReport(
        value=value,
        kind="classical",
        constants={"L_grad": grad_lipschitz, "radius": radius, "n_samples": cols, "pinv_norm": 1.0 / smin},
    )


def centered_bound(half_sample, hess_lipschitz: float, radius: float | None = None) -> BoundReport:
    """Bound for samples with the mirrored structure ``[A, -A]``.

    ``half_sample`` is A (n x N/2); the full sample has N = 2 cols(A)
    columns and the bound is ``(sqrt(N)/6) L_H |pinv(Ahat^T)| Delta^2``
    with ``Ahat = A / Delta``. ``hess_lipschitz`` must be valid on the
    ball of radius Delta about the reference point.
    """
    hess_lipschitz = _constant(hess_lipschitz, "hess_lipschitz")
    half_sample = _as_sample(half_sample)
    half_cols = half_sample.n_columns
    delta = _lengths((sample_radius(half_sample) if radius is None else radius,), "radius")[0]
    smin, smax = _min_max_singular(half_sample, delta)
    if smin <= 1e-12 * smax:
        raise RankDeficiencyError("half sample must have full row rank")
    cols = 2 * half_cols
    value = math.sqrt(cols) / 6.0 * hess_lipschitz * (1.0 / smin) * delta**2
    return BoundReport(
        value=value,
        kind="classical-centered",
        constants={"L_hess": hess_lipschitz, "radius": delta, "n_samples": cols, "pinv_norm": 1.0 / smin},
    )


def limit_bound_box(d, grad_lipschitz: float) -> BoundReport:
    """N-independent bound for the dense-grid limit over a box.

    General form ``(3/2) sqrt(n) L Delta^2 / d_min`` with Delta = |d| (the
    radius of the densified grid, attained at the far corner) and d_min the
    shortest side. When all sides are exactly equal the tighter hypercube
    form ``(1/2)(2n+1) L Delta`` applies and becomes the report value; the
    general value is kept in the constants either way.
    """
    grad_lipschitz = _constant(grad_lipschitz, "grad_lipschitz")
    d = np.array(_lengths(np.ravel(d)))
    n = _integer(d.size, "dimension", 2)
    radius = float(np.linalg.norm(d))
    d_min = float(np.min(d))
    general = 1.5 * math.sqrt(n) * grad_lipschitz * radius**2 / d_min
    constants = {"L_grad": grad_lipschitz, "radius": radius, "d_min": d_min, "general_value": general}
    # hypercube detection is exact equality by design: no tolerance
    if np.all(d == d[0]):
        value = 0.5 * (2 * n + 1) * grad_lipschitz * radius
        return BoundReport(value=value, kind="limit-hypercube", constants=constants)
    return BoundReport(value=general, kind="limit-box", constants=constants)


def limit_bound_ball(n: int, r: float, hess_lipschitz: float) -> BoundReport:
    """N-independent bound for the dense-sampling limit over a ball.

    ``(sqrt(n) / (3 sqrt(pi))) L_H eta(n) r^2`` with eta the gamma-ratio
    constant. Zero for any field with constant Hessian, matching the exact
    recovery of gradients of quadratics.
    """
    n = _integer(n, "dimension", 2)
    r = _lengths((r,), "radius")[0]
    hess_lipschitz = _constant(hess_lipschitz, "hess_lipschitz")
    eta = ball_gamma_ratio(n)
    value = math.sqrt(n) / (3.0 * math.sqrt(math.pi)) * hess_lipschitz * eta * r**2
    return BoundReport(
        value=value,
        kind="limit-ball",
        constants={"L_hess": hess_lipschitz, "radius": r, "eta": eta},
    )
