"""Registry of test fields with analytic derivatives and Lipschitz data.

Every entry carries a default reference point (anchor) and callables that
return Lipschitz constants of the gradient and Hessian valid on a caller
chosen ball. Constants are analytic, not estimated, so bound-domination
checks stay rigorous. A field's values are pinned to its formula, not to
its rounding: an evaluation may change bits within a few ulp (cubic2 forms
its cubes by products), so outputs that depend on them are compared within
tolerance, not byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gsg import ScalarField

__all__ = [
    "FieldEntry",
    "get_field",
    "field_ids",
    "make_affine",
    "check_gradient_consistency",
]


@dataclass(frozen=True)
class FieldEntry:
    id: str
    field: ScalarField
    anchor: tuple[float, ...]
    grad_lipschitz_on: Callable[[np.ndarray, float], float]
    hess_lipschitz_on: Callable[[np.ndarray, float], float]
    note: str = ""


def _quad2() -> FieldEntry:
    field = ScalarField(
        dim=2,
        fn=lambda x: x[:, 0] ** 2 + x[:, 1] ** 2,
        grad=lambda x: 2.0 * x,
        hess=lambda x: 2.0 * np.eye(2),
        name="quad2",
    )
    return FieldEntry(
        id="quad2",
        field=field,
        anchor=(3.0, 1.0),
        grad_lipschitz_on=lambda center, radius: 2.0,
        hess_lipschitz_on=lambda center, radius: 0.0,
        note="x1^2 + x2^2",
    )


def _cube_sum(x: np.ndarray) -> np.ndarray:
    """``x1^3 + x2^3`` as ``(a * a) * a + (b * b) * b``: each cube is within 2 ulp of exact (Higham,
    ch. 3: gamma_2), where ``x ** 3`` would call libm ``pow``, several times slower on a block. The
    products run in place, so a block's evaluation allocates two arrays, not five."""
    a, b = x[:, 0], x[:, 1]
    cubes, b_cubed = a * a, b * b
    cubes *= a
    b_cubed *= b
    cubes += b_cubed
    return cubes


def _cubic2() -> FieldEntry:
    field = ScalarField(
        dim=2,
        fn=_cube_sum,
        grad=lambda x: 3.0 * x**2,
        hess=lambda x: 6.0 * np.diag(x),
        name="cubic2",
    )

    def grad_lip(center, radius):
        center = np.asarray(center, dtype=float).reshape(-1)
        return 6.0 * (float(np.max(np.abs(center))) + float(radius))

    return FieldEntry(
        id="cubic2",
        field=field,
        anchor=(1.0, 1.0),
        grad_lipschitz_on=grad_lip,
        hess_lipschitz_on=lambda center, radius: 6.0,
        note="x1^3 + x2^3",
    )


def make_affine(dim: int, seed: int) -> FieldEntry:
    """Affine field ``g . x + c`` with coefficients drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2.0, 2.0, size=dim)
    return _affine(dim, seed, g, float(rng.uniform(-1.0, 1.0)))


def _affine(dim: int, seed: int, g: np.ndarray, c: float) -> FieldEntry:
    """The entry ``make_affine(dim, seed)`` returns when its generator draws ``g`` and ``c``."""
    field = ScalarField(
        dim=dim,
        fn=lambda x, g=g, c=c: x @ g + c,
        grad=lambda x, g=g: g.copy(),
        hess=lambda x, dim=dim: np.zeros((dim, dim)),
        name=f"affine{dim}-seed{seed}",
    )
    return FieldEntry(
        id=f"affine{dim}",
        field=field,
        anchor=(0.0,) * dim,
        grad_lipschitz_on=lambda center, radius: 0.0,
        hess_lipschitz_on=lambda center, radius: 0.0,
        note=f"seeded affine, coefficients {np.round(g, 6).tolist()}",
    )


# affine2 and affine3 are make_affine(2, seed=42) and make_affine(3, seed=43), their draws written out bit for
# bit, so that building the registry does not import numpy.random
_REGISTRY: dict[str, FieldEntry] = {}
for _entry in (
    _quad2(),
    _cubic2(),
    _affine(2, 42, np.array([float.fromhex("0x1.1887ef345b648p+0"), float.fromhex("-0x1.f4b533cb0dc10p-3")]),
            float.fromhex("0x1.6f344b09bb684p-1")),
    _affine(3, 43, np.array([float.fromhex("0x1.37e8ad040ae74p-1"), float.fromhex("-0x1.d32c8fc265100p+0"),
                             float.fromhex("-0x1.eb7d5d2db0ff0p+0")]), float.fromhex("0x1.5b5a8b111b36ap-1")),
):
    _REGISTRY[_entry.id] = _entry


def get_field(field_id: str) -> FieldEntry:
    try:
        return _REGISTRY[field_id]
    except KeyError:
        raise KeyError(f"unknown field id {field_id!r}; known ids: {sorted(_REGISTRY)}") from None


def field_ids() -> list[str]:
    return sorted(_REGISTRY)


def check_gradient_consistency(field: ScalarField, points) -> float:
    """Largest deviation between the analytic gradient and central differences of step 1e-6.

    Used to validate registry entries; returns the max absolute
    componentwise difference over the given points.
    """
    step = 1e-6
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g = field.gradient(x)
        for i in range(field.dim):
            e = np.zeros(field.dim)
            e[i] = step
            fd = (float(field(x + e)) - float(field(x - e))) / (2.0 * step)
            worst = max(worst, abs(fd - g[i]))
    return worst
