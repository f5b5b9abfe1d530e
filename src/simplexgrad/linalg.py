"""Dense linear-algebra kernel.

Small, deterministic helpers used by the other modules: the Moore-Penrose
pseudoinverse with an explicit rank cutoff (shared with the estimator's
solve route), and exact gamma values at half-integer arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .regions import _integer

__all__ = [
    "pseudoinverse",
    "gamma_half_integer",
]


def _rank_cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """The rank rule: singular values at or below ``max(rows, cols) * eps * sigma_max`` count as zero."""
    return max(shape) * np.finfo(float).eps * sigma_max


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``_rank_cutoff``, the rule the estimator's
    route takes too, count as zero, which keeps near-rank-deficient sample
    grids (small subdivision counts) stable.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("a must be a nonempty 2-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("a contains non-finite entries")
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    cutoff = _rank_cutoff(arr.shape, s[0] if s.size else 0.0)
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def gamma_half_integer(two_k: int) -> float:
    """Exact ``Gamma(two_k / 2)`` for positive integer ``two_k``.

    Built from Gamma(1) = 1, Gamma(1/2) = sqrt(pi) and the recurrence
    Gamma(x + 1) = x Gamma(x); no series approximation is involved.
    """
    two_k = _integer(two_k, "two_k", 1)
    if two_k % 2 == 0:
        return float(math.factorial(two_k // 2 - 1))
    value = math.sqrt(math.pi)
    # climb from Gamma(1/2) up to Gamma(two_k/2) in unit steps
    x = 0.5
    while x < two_k / 2 - 0.25:
        value *= x
        x += 1.0
    return value
