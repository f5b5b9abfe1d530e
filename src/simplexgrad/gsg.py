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
from .regions import _as_sample, _integer, sample_radius

__all__ = [
    "EvaluationError",
    "ScalarField",
    "GradientEstimate",
    "function_increments",
    "simplex_gradient",
]


class EvaluationError(RuntimeError):
    """Field evaluation failed or returned a non-finite value.

    ``index`` is the failing sample column or quadrature node (``unit``);
    -1 is the reference point.
    """

    def __init__(self, index: int, point, cause: str, unit: str = "column"):
        self.index = index
        super().__init__(f"field evaluation failed at {unit} {index} (point {point}): {cause}")


def _quiet_overflow() -> np.errstate:
    # a field that overflows yields inf or nan, which the callers' finiteness checks report
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class ScalarField:
    """Evaluatable scalar function of n variables.

    ``fn`` is evaluated on arrays of shape (m, n) and should return shape
    (m,); plain scalar-valued callables are also accepted and looped over.
    When m == n the array call gets one more row (a copy of the last), so
    that a scalar callable indexing rows cannot pass for a vectorized one.
    A ``MemoryError`` from the array call propagates instead of starting
    that loop. When the array call raised and the loop raises too, the
    loop's exception is raised with the array call's as its ``__cause__``:
    either one may be the field's own. ``grad`` and ``hess`` (if given) are
    evaluated at single points. Lipschitz data lives in the registry, in
    ``FieldEntry.grad_lipschitz_on`` and ``FieldEntry.hess_lipschitz_on``.
    """

    dim: int
    fn: Callable
    grad: Callable | None = None
    hess: Callable | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", 1))

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        if squeeze:
            points = points[None, :]
        if points.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} components")
        with _quiet_overflow():
            m = len(points)
            probe = points if m != self.dim else np.concatenate([points, points[-1:]])
            try:
                vals = np.asarray(self.fn(probe), dtype=float)
                if vals.shape == probe.shape[:1]:
                    return vals[0] if squeeze else vals[:m]
                array_error = None  # a scalar-valued callable
            except MemoryError:
                raise
            except Exception as exc:
                array_error = exc
            try:
                vals = np.array([float(self.fn(p)) for p in points])
            except MemoryError:
                raise
            except Exception as exc:
                raise exc from array_error
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
    """

    estimate: np.ndarray
    x0: np.ndarray
    radius: float
    n_samples: int
    true_gradient: np.ndarray | None = None
    error: float | None = None
    route: str | None = None
    cond: float | None = None


def _cause(exc: Exception) -> str:
    # a field that failed on the array and on the point is named by both
    return str(exc) if exc.__cause__ is None else f"{exc.__cause__}; one point at a time: {exc}"


def _increments(field: ScalarField, x0: np.ndarray, blocks, unit: str = "column"):
    """Yield ``(start, block, increments)`` for each ``(start, block)`` of ``blocks``.

    ``blocks`` yields a sample's column blocks (``SampleMatrix._blocks``) or
    the limit quadrature's node parts, each taken only once the previous
    block's increments have been yielded.

    ``block`` is an n x m block of columns whose first has index ``start``;
    its increments are ``f(x0 + block[:, j]) - f(x0)``. f(x0) is evaluated
    once, before the first block. Raises ``EvaluationError`` at the first
    column whose evaluation fails or whose increment is not finite (column
    -1 is x0 itself), naming it by its index as a ``unit``. ``MemoryError``
    propagates unchanged.
    """
    if x0.shape != (field.dim,):
        raise ValueError(f"points must have {field.dim} components")
    try:
        base = float(field(x0))
    except MemoryError:
        raise
    except Exception as exc:
        raise EvaluationError(-1, x0, _cause(exc), unit) from exc
    if not math.isfinite(base):
        raise EvaluationError(-1, x0, f"non-finite value {base}", unit)
    for start, block in blocks:
        if len(block) != field.dim:
            raise ValueError(f"points must have {field.dim} components")
        # x0 added one coordinate at a time: on the limit's node blocks (n x m views of C-ordered
        # m x n rows), x0[:, None] + block would run numpy's inner loop over n elements once per
        # node. empty_like keeps the block's layout, so the field gets points in the rows' layout.
        points = np.empty_like(block, dtype=float)
        for k in range(field.dim):
            np.add(block[k], x0[k], out=points[k])
        try:
            values = field(points.T)
        except MemoryError:
            raise
        except Exception:
            # re-evaluate one point at a time to name the first that fails
            for j in range(block.shape[1]):
                point = x0 + block[:, j]
                try:
                    field(point)
                except MemoryError:
                    raise
                except Exception as exc:
                    raise EvaluationError(start + j, point, _cause(exc), unit) from exc
            raise
        # dropped before the yield: a block held across it lets glibc trim the heap and fault
        # the next block's pages in again (cubic2 rect to 2048^2 on a 2-vCPU Linux box:
        # 27,939 minor faults a pass instead of 1,382, and about +30 % run time)
        del points
        with _quiet_overflow():
            increments = values - base
            # one reduction on the success path; the scan runs only when it is not finite
            total_finite = np.isfinite(np.sum(increments))
        if not total_finite:
            bad = np.flatnonzero(~np.isfinite(increments))
            if bad.size:
                j = int(bad[0])
                raise EvaluationError(start + j, x0 + block[:, j], f"non-finite increment {increments[j]}", unit)
        yield start, block, increments


def function_increments(field: ScalarField, x0, sample) -> np.ndarray:
    """Vector of increments ``f(x0 + S e_j) - f(x0)``, in column order.

    The reference value f(x0) is evaluated once, then the columns block by
    block in index order, so floating-point results are reproducible.
    """
    sample = _as_sample(sample)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != sample.dim:
        raise ValueError("x0 dimension does not match the sample matrix")
    df = np.empty(sample.n_columns)
    for start, _, increments in _increments(field, x0, sample._blocks()):
        df[start : start + increments.size] = increments
    return df


def simplex_gradient(field: ScalarField, x0, sample) -> GradientEstimate:
    """Least-squares gradient estimate of ``field`` at ``x0`` over ``sample``.

    Solves the normal equations when the sample has at least as many
    columns as rows and a numerically nonsingular Gram; otherwise falls
    back to the SVD pseudoinverse. Both routes agree (to roundoff) whenever
    S has full row rank. ``S df`` is summed block by block on the sample's
    one walk (``SampleMatrix._walk``), which also sums and caches the
    radius and ``S S^T`` unless a bound or the radius already did, so a
    fresh sample is read once and no n x N array is formed. The route is
    picked after that walk, from the sample's shared ``gram_spectrum``; a
    sample whose Gram turns out singular takes the SVD route, which forms
    the direction array and evaluates the field a second time.
    """
    sample = _as_sample(sample)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != sample.dim:
        raise ValueError("x0 dimension does not match the sample matrix")
    n, cols = sample.dim, sample.n_columns
    s_df = None
    if cols >= n:
        s_df = np.zeros(n)
        for _, block, increments in _increments(field, x0, sample._walk()):
            s_df += block @ increments
    gram, eigvals = sample.gram_spectrum
    cond = math.sqrt(eigvals[-1] / eigvals[0]) if eigvals[0] > 0 else math.inf
    cutoff = (max(n, cols) * np.finfo(float).eps) ** 2 * max(eigvals[-1], 0.0)
    if s_df is not None and eigvals[0] > cutoff:
        estimate = np.linalg.solve(gram.T, s_df)
        route = "normal-equations"
    else:
        # fewer columns than rows or a singular Gram: SVD pseudoinverse route, evaluating again
        estimate = pseudoinverse(sample.directions).T @ function_increments(field, x0, sample)
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
