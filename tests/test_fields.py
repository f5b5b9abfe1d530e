from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simplexgrad.fields import field_ids, get_field, make_affine
from simplexgrad.gsg import ScalarField

RNG = np.random.default_rng(99)


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


def seeded_points_in_ball(center, radius, count=1000):
    center = np.asarray(center, dtype=float)
    n = center.size
    raw = RNG.normal(size=(count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    scales = radius * RNG.random(count) ** (1.0 / n)
    return center + raw * scales[:, None]


def test_registry_contents():
    ids = field_ids()
    assert "quad2" in ids
    assert "cubic2" in ids
    assert "affine2" in ids


def test_unknown_id():
    with pytest.raises(KeyError, match="unknown field"):
        get_field("nope")


def test_make_affine_deterministic():
    a = make_affine(2, seed=5)
    b = make_affine(2, seed=5)
    x = np.array([[0.3, -0.7]])
    assert a.field(x) == b.field(x)
    assert np.array_equal(a.field.gradient([0.0, 0.0]), b.field.gradient([0.0, 0.0]))


@pytest.mark.parametrize("dim, seed", [(2, 42), (3, 43)])
def test_registry_affine_fields_are_their_seeded_draws_bitwise(dim, seed):
    entry, drawn = get_field(f"affine{dim}"), make_affine(dim, seed)
    zero = np.zeros(dim)
    # g is the gradient everywhere and c the value at 0
    assert entry.field.gradient(zero).tobytes() == drawn.field.gradient(zero).tobytes()
    assert float(entry.field(zero)).hex() == float(drawn.field(zero)).hex()
    assert (entry.id, entry.field.name, entry.note, entry.anchor) == (drawn.id, drawn.field.name, drawn.note, drawn.anchor)
    x = RNG.uniform(-2.0, 2.0, size=(50, dim))
    assert entry.field(x).tobytes() == drawn.field(x).tobytes()


_NO_RANDOM = """
import sys
import simplexgrad
from simplexgrad.experiments import ExperimentConfig, convergence
from simplexgrad.fields import get_field
get_field("affine3")
convergence(ExperimentConfig(field_id="affine3", region="ball", schedule=((3, 3, 3), (5, 5, 5)), nodes=8))
convergence(ExperimentConfig(field_id="cubic2", region="rect", schedule=((4, 4), (8, 8)), nodes=8))
print("numpy.random" in sys.modules)
"""


def test_the_package_and_grid_runs_do_not_import_numpy_random():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NO_RANDOM],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"


@pytest.mark.parametrize("fid", ["quad2", "cubic2", "affine2", "affine3"])
def test_analytic_gradient_matches_central_differences(fid):
    entry = get_field(fid)
    pts = RNG.uniform(-2.0, 2.0, size=(25, entry.field.dim))
    assert check_gradient_consistency(entry.field, pts) < 1e-5


@pytest.mark.parametrize("fid", ["quad2", "cubic2", "affine2", "affine3"])
def test_lipschitz_constants_hold_on_declared_ball(fid):
    entry = get_field(fid)
    center = np.array(entry.anchor)
    radius = 1.5
    grad_lip = entry.grad_lipschitz_on(center, radius)
    hess_lip = entry.hess_lipschitz_on(center, radius)
    pts = seeded_points_in_ball(center, radius)
    hessians = np.array([entry.field.hessian(p) for p in pts])
    norms = np.array([np.linalg.norm(h, ord=2) for h in hessians])
    assert np.all(norms <= grad_lip + 1e-9)
    # Hessian variation between point pairs bounded by the declared constant
    for i in range(0, 900, 90):
        a, b = pts[i], pts[i + 1]
        gap = np.linalg.norm(hessians[i] - hessians[i + 1], ord=2)
        dist = np.linalg.norm(a - b)
        if dist > 1e-9:
            assert gap <= hess_lip * dist + 1e-9


def test_cubic_values_are_within_two_ulp_of_the_exact_cubes():
    # two roundings a cube, so each is within gamma_2 of exact (Higham, ch. 3), under 2 ulp
    x = RNG.uniform(-3.0, 3.0, size=(2000, 2))
    x[:5] = [[0.0, -0.0], [1.0, -1.0], [2.0, 0.5], [1e-50, -1e100], [3.0, 1.0 / 3.0]]
    a, b = x[:, 0], x[:, 1]
    cubes, inputs = np.concatenate([a * a * a, b * b * b]), np.concatenate([a, b])
    for got, v in zip(cubes.tolist(), inputs.tolist()):
        exact = Fraction(v) ** 3
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(got)), v
    assert np.array_equal(get_field("cubic2").field(x), cubes[:2000] + cubes[2000:])


def test_cubic_gradient_check_is_that_of_the_power_formula():
    entry = get_field("cubic2")
    pts = RNG.uniform(-2.0, 2.0, size=(25, 2))
    power = ScalarField(dim=2, fn=lambda x: x[:, 0] ** 3 + x[:, 1] ** 3, grad=entry.field.grad)
    got, want = check_gradient_consistency(entry.field, pts), check_gradient_consistency(power, pts)
    assert got < 1e-5 and abs(got - want) < 1e-8


def test_cubic_gradient_lipschitz_is_tight_but_valid():
    entry = get_field("cubic2")
    center = np.array([1.0, 1.0])
    lip = entry.grad_lipschitz_on(center, 1.0)
    # the constant is attained at the far face of the ball
    assert lip == pytest.approx(12.0, abs=1e-12)
    edge = entry.field.hessian(center + np.array([1.0, 0.0]))
    assert np.linalg.norm(edge, ord=2) <= lip + 1e-12
