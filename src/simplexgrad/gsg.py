"""The least-squares simplex-gradient estimator.

Given a reference point and a direction matrix S (one column per sample
point), the estimate is ``pinv(S)^T @ df`` where ``df`` stacks the function
increments ``f(x0 + S e_j) - f(x0)``. For full-row-rank S this coincides
with the normal-equation form ``(S S^T)^{-T} S df``, which is what the
implementation solves when S has more columns than rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import pseudoinverse
from .regions import _directions, _gram_spectrum, sample_radius

__all__ = [
    "EvaluationError",
    "ScalarField",
    "GradientEstimate",
    "function_increments",
    "simplex_gradient",
]


class EvaluationError(RuntimeError):
    """Field evaluation failed or returned a non-finite value."""

    def __init__(self, column: int, point, cause: str):
        self.column = column
        super().__init__(f"field evaluation failed at column {column} (point {point}): {cause}")


def _quiet_overflow() -> np.errstate:
    # a field that overflows yields inf or nan, which the callers' finiteness checks report
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class ScalarField:
    """Evaluatable scalar function of n variables.

    ``fn`` is evaluated on arrays of shape (m, n) and should return shape
    (m,); plain scalar-valued callables are also accepted and looped over.
    A ``MemoryError`` from the array call propagates instead of starting
    that loop. ``grad`` and ``hess`` (if given) are evaluated at single points.
    ``grad_lipschitz``/``hess_lipschitz``, when present, are constants
    valid on the ball of radius ``lipschitz_radius`` about
    ``lipschitz_center``.
    """

    dim: int
    fn: Callable
    grad: Callable | None = None
    hess: Callable | None = None
    name: str = ""
    grad_lipschitz: float | None = None
    hess_lipschitz: float | None = None
    lipschitz_center: tuple[float, ...] | None = None
    lipschitz_radius: float | None = None

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        if squeeze:
            points = points[None, :]
        if points.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} components")
        with _quiet_overflow():
            try:
                vals = np.asarray(self.fn(points), dtype=float)
                if vals.shape != points.shape[:1]:
                    raise TypeError("non-vectorized evaluator")
            except MemoryError:
                raise
            except Exception:
                vals = np.array([float(self.fn(p)) for p in points])
        return vals[0] if squeeze else vals

    def gradient(self, x) -> np.ndarray:
        if self.grad is None:
            raise ValueError(f"field {self.name or '<anonymous>'} has no analytic gradient")
        with _quiet_overflow():
            return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float).reshape(-1)

    def hessian(self, x) -> np.ndarray:
        if self.hess is None:
            raise ValueError(f"field {self.name or '<anonymous>'} has no analytic Hessian")
        with _quiet_overflow():
            return np.asarray(self.hess(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class GradientEstimate:
    """Gradient estimate with the context needed to audit it.

    ``route`` is the solve that produced it (``"normal-equations"`` or
    ``"svd"``) and ``cond`` is ``sqrt(lambda_max / lambda_min)`` of the
    sample's Gram matrix, i.e. cond(S), infinite when lambda_min <= 0.
    Neither is written by ``to_csv_row``.
    """

    estimate: np.ndarray
    x0: np.ndarray
    radius: float
    n_samples: int
    true_gradient: np.ndarray | None = None
    error: float | None = None
    route: str | None = None
    cond: float | None = None

    CSV_HEADER = "x0,n_samples,radius,estimate,error,bounds"

    def to_csv_row(self, bounds=None) -> str:
        """One CSV line; ``bounds`` is an optional mapping of kind to value."""
        x0 = ";".join(repr(float(v)) for v in self.x0)
        est = ";".join(repr(float(v)) for v in self.estimate)
        err = "" if self.error is None else repr(float(self.error))
        attached = "" if not bounds else ";".join(f"{k}={repr(float(v))}" for k, v in sorted(bounds.items()))
        return f"{x0},{self.n_samples},{repr(float(self.radius))},{est},{err},{attached}"


def _increments(field: ScalarField, x0: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Increments ``f(x0 + offsets[j]) - f(x0)``, one per row of the (m, n) ``offsets``.

    Raises ``EvaluationError`` at the first row whose evaluation fails or
    whose increment is not finite (row -1 is x0 itself). ``MemoryError``
    propagates unchanged.
    """
    if x0.shape != (field.dim,) or offsets.shape[1:] != (field.dim,):
        raise ValueError(f"points must have {field.dim} components")
    try:
        base = float(field(x0))
        values = field(x0 + offsets)
    except MemoryError:
        raise
    except Exception:
        # re-evaluate one point at a time to name the first that fails
        for j in range(-1, len(offsets)):
            point = x0 if j < 0 else x0 + offsets[j]
            try:
                field(point)
            except MemoryError:
                raise
            except Exception as exc:
                raise EvaluationError(j, point, str(exc)) from exc
        raise
    if not math.isfinite(base):
        raise EvaluationError(-1, x0, f"non-finite value {base}")
    with _quiet_overflow():
        increments = values - base
        # one reduction on the success path; the scan runs only when it is not finite
        total_finite = np.isfinite(np.sum(increments))
    if not total_finite:
        bad = np.flatnonzero(~np.isfinite(increments))
        if bad.size:
            j = int(bad[0])
            raise EvaluationError(j, x0 + offsets[j], f"non-finite increment {increments[j]}")
    return increments


def function_increments(field: ScalarField, x0, sample) -> np.ndarray:
    """Vector of increments ``f(x0 + S e_j) - f(x0)``, in column order.

    The reference value f(x0) is evaluated once. Columns are evaluated in
    index order so floating-point results are reproducible.
    """
    s = _directions(sample)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != s.shape[0]:
        raise ValueError("x0 dimension does not match the sample matrix")
    return _increments(field, x0, s.T)


def simplex_gradient(field: ScalarField, x0, sample) -> GradientEstimate:
    """Least-squares gradient estimate of ``field`` at ``x0`` over ``sample``.

    Solves the normal equations when the sample has more columns than rows
    and full row rank; otherwise falls back to the SVD pseudoinverse. Both
    routes agree (to roundoff) whenever S has full row rank. The Gram
    matrix and its eigenvalues are the sample's shared ``gram_spectrum``.
    """
    s = _directions(sample)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    df = function_increments(field, x0, sample)
    n, cols = s.shape
    gram, eigvals = _gram_spectrum(sample)
    cond = math.sqrt(eigvals[-1] / eigvals[0]) if eigvals[0] > 0 else math.inf
    estimate = None
    if cols >= n:
        cutoff = (max(n, cols) * np.finfo(float).eps) ** 2 * max(eigvals[-1], 0.0)
        if eigvals[0] > cutoff:
            estimate = np.linalg.solve(gram.T, s @ df)
            route = "normal-equations"
    if estimate is None:
        # rank-deficient or wide-but-singular sample: SVD pseudoinverse route
        estimate = pseudoinverse(s).T @ df
        route = "svd"
    true_grad = None
    error = None
    if field.grad is not None:
        true_grad = field.gradient(x0)
        error = float(np.linalg.norm(estimate - true_grad))
    return GradientEstimate(
        estimate=estimate,
        x0=x0,
        radius=sample_radius(sample),
        n_samples=cols,
        true_gradient=true_grad,
        error=error,
        route=route,
        cond=cond,
    )
