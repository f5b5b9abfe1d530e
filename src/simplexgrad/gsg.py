"""The least-squares simplex-gradient estimator.

Given a reference point and a direction matrix S (one column per sample
point), the estimate is ``pinv(S)^T @ df`` where ``df`` stacks the function
increments ``f(x0 + S e_j) - f(x0)``. For full-row-rank S this coincides
with the normal-equation form ``(S S^T)^{-T} S df``, which is what the
implementation solves when S passes the pseudoinverse's rank rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import _rank_cutoff, pseudoinverse
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
    # a field that overflows or divides by zero yields inf or nan, which the callers' finiteness checks report
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class ScalarField:
    """Evaluatable scalar function of n variables.

    ``fn`` is evaluated on arrays of shape (m, n) and should return shape
    (m,); plain scalar-valued callables are also accepted and looped over.
    The estimator and the limit pass ``fn`` a fresh array for each block,
    which it may keep. When m == n the array call gets one more row (a
    copy of the last), so that a scalar callable indexing rows cannot pass
    for a vectorized one.
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
    ``"svd"``) and ``cond`` is cond(S) = sigma_max / sigma_min from the
    sample's ``singular_range``: infinite when sigma_min = 0 (fewer columns
    than rows), about 1e16 when S is rank deficient with N >= n.
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
    """Yield ``(start, block, increments, *payload)`` for each ``(start, block, *payload)`` of ``blocks``.

    ``blocks`` yields a sample's column blocks (its one walk,
    ``SampleMatrix._blocks``, with no payload) or the limit quadrature's
    node parts (with their weights as payload), each taken only once the
    previous block's increments have been yielded. A block's payload is
    passed through untouched, so it travels with its block.

    ``block`` is an n x m block of columns whose first has index ``start``;
    its increments are ``f(x0 + block[:, j]) - f(x0)``. f(x0) is evaluated
    once, before the first block. ``block`` is yielded as ``blocks`` gave
    it, so a lazy sample's block is valid only until the next is requested;
    the points passed to the field and the increments are fresh arrays for
    each block, which a field may keep. Raises ``EvaluationError`` at the first
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
    for start, block, *payload in blocks:
        if len(block) != field.dim:
            raise ValueError(f"points must have {field.dim} components")
        # x0 added one coordinate at a time: on the box's node blocks (n x m views of C-ordered
        # m x n rows), x0[:, None] + block would run numpy's inner loop over n elements once per
        # node; the ball's node blocks are C-contiguous n x m, so each add reads one contiguous row.
        # empty_like keeps the block's layout, so the field gets points in the nodes' layout.
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
        # dropped before the yield, so a part's points are freed before the next part is built:
        # held, a 128^3 ball limit peaked 0.4 MB higher and faulted ~120 more pages a warm pass
        del points
        with _quiet_overflow():
            increments = values - base
            # one reduction on the success path; the scan runs only when it is not finite
            total_finite = math.isfinite(increments.sum())
        if not total_finite:
            bad = np.flatnonzero(~np.isfinite(increments))
            if bad.size:
                j = int(bad[0])
                raise EvaluationError(start + j, x0 + block[:, j], f"non-finite increment {increments[j]}", unit)
        yield start, block, increments, *payload


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

    Evaluates the field on one walk over the sample, which sums ``S df``
    block by block and, unless a bound or the radius already did, the
    radius and ``S S^T`` (see ``SampleMatrix``), so a fresh sample is read
    once and no n x N array is formed. The route is then taken from S's
    singular values (``singular_range``, which the bounds and ``cond``
    read too) by the pseudoinverse's own rank rule: the normal equations
    ``(S S^T)^{-T} S df`` when sigma_min > max(n, N) eps sigma_max, else
    ``pinv(S)^T df`` by SVD. A sample with fewer columns than rows has
    sigma_min = 0 and takes the SVD route. The SVD route reuses the walk's
    increments when the sample is one block; a longer sample forms a
    transient direction array and evaluates the field a second time. An
    empty sample raises ``ValueError`` once f(x0) has been evaluated.
    """
    sample = _as_sample(sample)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != sample.dim:
        raise ValueError("x0 dimension does not match the sample matrix")
    n, cols = sample.dim, sample.n_columns
    s_df = np.zeros(n)
    for _, block, df in _increments(field, x0, sample._blocks()):
        s_df += block @ df
    smin, smax = sample.singular_range
    if smin > _rank_cutoff((n, cols), smax):
        estimate = np.linalg.solve(sample.gram_spectrum[0].T, s_df)
        route = "normal-equations"
    else:
        if block.shape[1] < cols:
            # a sample of several blocks: the whole direction array, and its increments again
            block, df = sample._block(0, sample._shape[0]), function_increments(field, x0, sample)
        estimate = pseudoinverse(block).T @ df
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
        cond=smax / smin if smin > 0 else math.inf,
    )
