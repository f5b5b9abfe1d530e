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


def classical_bound(sample, grad_lipschitz: float) -> BoundReport:
    """Finite-sample bound ``(sqrt(N)/2) L |pinv(Shat^T)| Delta``.

    ``Shat`` is the sample scaled by its radius Delta (largest column
    norm); ``|pinv(Shat^T)|`` equals ``1 / sigma_min(Shat)`` for a
    full-row-rank sample, with sigma_min(Shat) = sigma_min(S) / Delta from
    the sample's ``singular_range``. ``grad_lipschitz`` must be valid on
    the ball of radius Delta about the reference point.
    """
    grad_lipschitz = _constant(grad_lipschitz, "grad_lipschitz")
    sample = _as_sample(sample)
    cols = sample.n_columns
    radius = sample_radius(sample)
    return _sample_bound(sample, radius, cols, 2.0, 1, "L_grad", grad_lipschitz, "classical", "sample matrix")


def centered_bound(half_sample, hess_lipschitz: float) -> BoundReport:
    """Bound for samples with the mirrored structure ``[A, -A]``.

    ``half_sample`` is A (n x N/2); the full sample has N = 2 cols(A)
    columns and the bound is ``(sqrt(N)/6) L_H |pinv(Ahat^T)| Delta^2``
    with ``Ahat = A / Delta``. Delta is A's radius (largest column norm),
    which is the full sample's too: every column norm of [A, -A] is one of
    A's. ``hess_lipschitz`` must be valid on the ball of radius Delta about
    the reference point.
    """
    hess_lipschitz = _constant(hess_lipschitz, "hess_lipschitz")
    half_sample = _as_sample(half_sample)
    half_cols = half_sample.n_columns
    delta = sample_radius(half_sample)
    return _sample_bound(
        half_sample, delta, 2 * half_cols, 6.0, 2, "L_hess", hess_lipschitz, "classical-centered", "half sample"
    )


def _sample_bound(sample, delta, cols, divisor, power, name, lipschitz, kind, what) -> BoundReport:
    """``(sqrt(cols)/divisor) L |pinv(Xhat^T)| delta^power``, Xhat = ``sample`` / delta and L = ``lipschitz``;
    ``RankDeficiencyError`` naming ``what`` when sigma_min(S) <= 1e-12 sigma_max(S), an all-zero S included."""
    smin, smax = sample.singular_range
    if smin <= 1e-12 * smax:
        raise RankDeficiencyError(f"{what} must have full row rank")
    smin /= delta
    value = math.sqrt(cols) / divisor * lipschitz * (1.0 / smin) * delta**power
    return BoundReport(
        value=value,
        kind=kind,
        constants={name: lipschitz, "radius": delta, "n_samples": cols, "pinv_norm": 1.0 / smin},
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
