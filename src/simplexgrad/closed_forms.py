"""Closed forms attached to the rectangular grid and the ball.

Everything here is an explicit formula that returns the value it computes:
the Gram matrix of the rightmost-endpoint grid, its inverse (a diagonal
matrix minus a rank-one term), the dense-sampling limit of the scaled
inverse Gram (its side-length-free factor, the unit-side matrix, has
spectral norm 12 for every n), ball volumes, and the gamma-ratio constant
used by the ball error bound.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import gamma_half_integer
from .regions import HyperrectRegion, _integer, _integers, _lengths

__all__ = [
    "grid_gram",
    "grid_gram_inverse",
    "dense_limit_matrix",
    "ball_volume",
    "ball_gamma_ratio",
]


def _check_counts_sublengths(counts, sublengths) -> tuple[np.ndarray, np.ndarray]:
    counts = np.array(_integers(np.ravel(counts).tolist(), least=HyperrectRegion.least))
    sublengths = np.array(_lengths(np.ravel(sublengths), "cell side lengths"))
    if _integer(counts.size, "dimension", 2) != sublengths.size:
        raise ValueError("counts and sublengths must have equal length")
    return counts, sublengths


def grid_gram(counts, sublengths) -> np.ndarray:
    """Closed-form S S^T (n x n) for the rightmost-endpoint grid.

    Diagonal entries ``N (N_i+1)(2N_i+1)/6 * h_i^2`` and off-diagonal
    entries ``N (N_i+1)(N_j+1)/4 * h_i h_j``, where N is the total column
    count and h the cell side lengths.
    """
    counts, sublengths = _check_counts_sublengths(counts, sublengths)
    n = counts.size
    total = float(np.prod(counts.astype(float)))
    row = (counts + 1.0) / 2.0 * sublengths
    g = total * np.outer(row, row)
    diag = total * (counts + 1.0) * (2.0 * counts + 1.0) / 6.0 * sublengths**2
    g[np.diag_indices(n)] = diag
    return g


def grid_gram_inverse(counts, sublengths) -> np.ndarray:
    """Closed-form (S S^T)^{-T} for the rightmost-endpoint grid.

    Equals ``(12/N) (E - 3/(1+3s) y y^T)`` with E diagonal with entries
    ``1/((N_i^2-1) h_i^2)``, ``y_i = 1/((N_i-1) h_i)`` and
    ``s = sum (N_i+1)/(N_i-1)``.
    """
    counts, sublengths = _check_counts_sublengths(counts, sublengths)
    total = float(np.prod(counts.astype(float)))
    e = 1.0 / ((counts.astype(float) ** 2 - 1.0) * sublengths**2)
    y = 1.0 / ((counts - 1.0) * sublengths)
    s = float(np.sum((counts + 1.0) / (counts - 1.0)))
    return 12.0 / total * (np.diag(e) - 3.0 / (1.0 + 3.0 * s) * np.outer(y, y))


def dense_limit_matrix(d) -> np.ndarray:
    """Dense-sampling limit D^{-1} F D^{-1} of ``N (S S^T)^{-T}`` for a box with sides ``d``.

    Diagonal entries ``12(3n-2) / (d_i^2 (3n+1))``, off-diagonal entries
    ``-36 / (d_i d_j (3n+1))``, with D = diag(d). The side-length-free
    factor F is the unit-side matrix ``dense_limit_matrix((1.0,) * n)``
    (bitwise, as 1/1 = 1). Sides so small that an entry overflows (below
    about 1e-154) raise ``ValueError``.
    """
    d = np.array(_lengths(np.ravel(d)))
    n = _integer(d.size, "dimension", 2)
    f = np.full((n, n), -36.0 / (3.0 * n + 1.0))
    f[np.diag_indices(n)] = 12.0 * (3.0 * n - 2.0) / (3.0 * n + 1.0)
    with np.errstate(over="ignore"):
        inv_d = 1.0 / d
        matrix = f * np.outer(inv_d, inv_d)
    if not np.isfinite(matrix).all():
        raise ValueError(f"box sides {tuple(map(float, d))} are too small for the dense-limit matrix (1/d_i^2 overflows)")
    return matrix


def ball_volume(dim: int, r: float = 1.0) -> float:
    """Volume pi^{dim/2} r^dim / Gamma(dim/2 + 1) of a ball in ``dim`` dimensions."""
    dim = _integer(dim, "dimension", 1)
    r = _lengths((r,), "radius")[0]
    return math.pi ** (dim / 2.0) * r**dim / gamma_half_integer(dim + 2)


def ball_gamma_ratio(n: int) -> float:
    """Gamma((n+4)/2) / (sqrt(pi) Gamma((n+3)/2)); appears in the ball error bound."""
    n = _integer(n, "dimension", 1)
    return gamma_half_integer(n + 4) / (math.sqrt(math.pi) * gamma_half_integer(n + 3))

