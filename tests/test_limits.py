from __future__ import annotations

import math

import numpy as np
import pytest

from simplexgrad.closed_forms import dense_limit_matrix
from simplexgrad.fields import get_field
from simplexgrad.gsg import EvaluationError, ScalarField, function_increments, simplex_gradient
from simplexgrad.limits import (
    CapabilityError,
    ball_moment_vector,
    box_moment_vector,
    limit_gradient_ball,
    limit_gradient_box,
    taylor_diagnostics,
)
from simplexgrad.quadrature import QuadratureSpec, box_nodes, monomial_ball_integral
from simplexgrad.regions import (
    BallRegion,
    HyperrectRegion,
    ball_grid_sample,
    grid_jacobian,
    rect_grid_sample,
)

SPEC64 = QuadratureSpec(64)
QUAD2 = get_field("quad2").field
CUBIC2 = get_field("cubic2").field

CONSTANT = ScalarField(dim=2, fn=lambda x: np.full(x.shape[0], 3.25))


def linear_field(g):
    g = np.asarray(g, dtype=float)
    return ScalarField(dim=g.size, fn=lambda x: x @ g, grad=lambda x: g.copy(), hess=lambda x: np.zeros((g.size, g.size)))


def bent_field(g):
    """``g . x + |x|^4``: gradient g at the origin, curved everywhere else."""
    g = np.asarray(g, dtype=float)
    return ScalarField(dim=g.size, fn=lambda x: x @ g + (x * x).sum(axis=1) ** 2, grad=lambda x: g + 4.0 * (x @ x) * x)


class TestBoxMoments:
    def test_constant_field_zero(self):
        assert np.allclose(box_moment_vector(CONSTANT, (1.0, 2.0), (1.0, 1.0), SPEC64), 0.0, atol=1e-13)

    def test_quadratic_worked_values(self):
        t = box_moment_vector(QUAD2, (3.0, 1.0), (1.0, 1.0), SPEC64)
        assert np.allclose(t, [35.0 / 12.0, 31.0 / 12.0], atol=1e-12)

    def test_linear_field_closed_form(self):
        g = np.array([1.3, -0.4, 2.0])
        d = np.array([1.0, 2.0, 0.5])
        t = box_moment_vector(linear_field(g), np.zeros(3), d, SPEC64)
        vol = float(np.prod(d))
        weighted = float(d @ g)
        expected = vol * d * (d * g + 3.0 * weighted) / 12.0
        assert np.allclose(t, expected, rtol=1e-12)


class TestBallMoments:
    def test_constant_field_zero(self):
        assert np.allclose(ball_moment_vector(CONSTANT, (0.0, 0.0), 1.0, SPEC64), 0.0, atol=1e-12)

    def test_quadratic_worked_values(self):
        t = ball_moment_vector(QUAD2, (3.0, 1.0), 1.0, SPEC64)
        assert np.allclose(t, [1.5 * math.pi, 0.5 * math.pi], atol=1e-10)

    def test_odd_field_reduces_to_even_moment(self):
        field = ScalarField(dim=2, fn=lambda x: x[:, 0] ** 3)
        t = ball_moment_vector(field, (0.0, 0.0), 1.0, SPEC64)
        assert t[0] == pytest.approx(monomial_ball_integral((4, 0), 2, 1.0), rel=1e-10)
        assert abs(t[1]) < 1e-12


class TestLimitGradientBox:
    def test_quadratic_worked_example(self):
        res = limit_gradient_box(QUAD2, (3.0, 1.0), (1.0, 1.0), SPEC64)
        assert np.allclose(res.estimate, [47.0 / 7.0, 19.0 / 7.0], atol=1e-10)
        err = np.linalg.norm(res.estimate - [6.0, 2.0])
        assert err == pytest.approx(5.0 * math.sqrt(2.0) / 7.0, abs=1e-10)

    def test_exact_on_linear_fields(self):
        g = np.array([0.8, -1.7])
        res = limit_gradient_box(linear_field(g), (4.0, -2.0), (0.5, 1.5), SPEC64)
        assert np.linalg.norm(res.estimate - g) < 1e-8

    def test_reconstructible_from_stored_parts(self):
        res = limit_gradient_box(CUBIC2, (1.0, 1.0), (2.0, 1.0), SPEC64)
        d = np.array(res.region_params)
        rebuilt = dense_limit_matrix(d) @ res.moments / float(np.prod(d))
        assert np.allclose(rebuilt, res.estimate, atol=1e-12)

    def test_finite_grid_estimates_approach_it(self):
        res = limit_gradient_box(CUBIC2, (1.0, 1.0), (1.0, 1.0), SPEC64)
        errors = []
        for k in (3, 4, 5, 6):
            sample = rect_grid_sample(HyperrectRegion((1.0, 1.0), (1.0, 1.0), (2**k, 2**k)))
            est = simplex_gradient(CUBIC2, (1.0, 1.0), sample)
            errors.append(np.linalg.norm(est.estimate - res.estimate))
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestLimitGradientBall:
    def test_quadratic_worked_example_exact(self):
        res = limit_gradient_ball(QUAD2, (3.0, 1.0), 1.0, SPEC64)
        assert np.allclose(res.estimate, [6.0, 2.0], atol=1e-8)

    def test_exact_on_general_quadratics(self):
        h = np.array([[2.0, 0.7], [0.7, -1.2]])
        g0 = np.array([0.3, -2.0])

        def fn(x):
            return x @ g0 + 0.5 * np.einsum("mi,ij,mj->m", x, h, x)

        field = ScalarField(dim=2, fn=fn, grad=lambda x: g0 + h @ x)
        x0 = np.array([0.8, -0.3])
        res = limit_gradient_ball(field, x0, 0.7, SPEC64)
        assert np.linalg.norm(res.estimate - field.gradient(x0)) < 1e-8

    def test_cubic_value_matches_moment_oracle(self):
        # moments of the increment expand into exact even monomial integrals
        res = limit_gradient_ball(CUBIC2, (1.0, 1.0), 1.0, SPEC64)
        t1 = 3.0 * monomial_ball_integral((2, 0), 2, 1.0) + monomial_ball_integral((4, 0), 2, 1.0)
        v4 = math.pi**2 / 2.0
        expected = 2.0 * math.pi / v4 * t1
        assert np.allclose(res.estimate, [expected, expected], atol=1e-9)
        assert expected == pytest.approx(3.5, abs=1e-12)

    def test_riemann_sums_of_weighted_increments_converge(self):
        # jacobian-weighted sums over the polar grid tend to the ball moments
        t = ball_moment_vector(CUBIC2, (1.0, 1.0), 1.0, SPEC64)
        errors = []
        for k in (3, 4, 5, 6):
            region = BallRegion((1.0, 1.0), 1.0, (2**k, 2**k))
            sample = ball_grid_sample(region)
            jac = np.array([grid_jacobian(region, idx) for idx in sample.indices])
            cell = (1.0 / 2**k) * (2.0 * math.pi / 2**k)
            df = function_increments(CUBIC2, (1.0, 1.0), sample)
            approx = (sample.directions * (jac * df)).sum(axis=1) * cell
            errors.append(np.linalg.norm(approx - t))
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestTaylorDiagnostics:
    @pytest.mark.parametrize("fid", ["quad2", "cubic2", "affine2"])
    def test_box_linear_part_recovers_gradient(self, fid):
        entry = get_field(fid)
        x0 = np.array(entry.anchor)
        d = np.array([1.0, 1.0])
        parts = taylor_diagnostics(entry.field, x0, d=d, spec=SPEC64)
        recovered = dense_limit_matrix(d) @ parts["v"] / float(np.prod(d))
        assert np.linalg.norm(recovered - entry.field.gradient(x0)) < 1e-8

    def test_box_parts_sum_to_moments(self):
        x0 = np.array([1.0, 1.0])
        d = np.array([1.0, 2.0])
        parts = taylor_diagnostics(CUBIC2, x0, d=d, spec=SPEC64)
        t = box_moment_vector(CUBIC2, x0, d, SPEC64)
        assert np.allclose(parts["v"] + parts["w"], t, atol=1e-10)

    def test_ball_curvature_part_vanishes(self):
        parts = taylor_diagnostics(CUBIC2, (1.0, 1.0), r=1.0, spec=SPEC64)
        v4 = math.pi**2 / 2.0
        assert np.linalg.norm(2.0 * math.pi / v4 * parts["w"]) < 1e-8

    def test_ball_remainder_vanishes_for_quadratics(self):
        parts = taylor_diagnostics(QUAD2, (3.0, 1.0), r=1.0, spec=SPEC64)
        assert np.linalg.norm(parts["z"]) < 1e-8

    def test_requires_analytic_derivatives(self):
        bare = ScalarField(dim=2, fn=lambda x: x[:, 0])
        with pytest.raises(CapabilityError):
            taylor_diagnostics(bare, (0.0, 0.0), d=(1.0, 1.0))
        with pytest.raises(CapabilityError):
            taylor_diagnostics(bare, (0.0, 0.0), r=1.0)

    def test_ball_split_needs_no_hessian(self):
        no_hess = ScalarField(dim=2, fn=lambda x: x[:, 0], grad=lambda x: np.array([1.0, 0.0]))
        parts = taylor_diagnostics(no_hess, (0.0, 0.0), r=1.0, spec=QuadratureSpec(16))
        assert np.linalg.norm(parts["z"]) < 1e-12

    @pytest.mark.parametrize("d", [(1.0, 0.25), (1.0, 2.0, 0.5), (0.3, 1.0, 2.0, 0.7)], ids=["n2", "n3", "n4"])
    def test_box_linear_part_is_the_linear_fields_moments(self, d):
        g, x0 = np.array([1.3, -0.4, 2.0, 0.9])[: len(d)], np.zeros(len(d))
        v = taylor_diagnostics(bent_field(g), x0, d=d, spec=QuadratureSpec(8))["v"]
        np.testing.assert_allclose(v, box_moment_vector(linear_field(g), x0, d, QuadratureSpec(8)), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_linear_part_is_the_linear_fields_moments_and_curvature_part_is_zero(self, n):
        g, x0 = np.array([1.3, -0.4, 2.0])[:n], np.zeros(n)
        parts = taylor_diagnostics(bent_field(g), x0, r=0.7, spec=QuadratureSpec(8))
        np.testing.assert_allclose(parts["v"], ball_moment_vector(linear_field(g), x0, 0.7, QuadratureSpec(16)), rtol=1e-12)
        assert parts["w"].shape == (n,) and not parts["w"].any()

    @pytest.mark.parametrize(
        "x0, region",
        [((1.0, 1.0, 1.0), {"d": (1.0, 1.0)}), ((1.0, 1.0), {"d": (1.0, 1.0, 1.0)}), ((1.0, 1.0, 1.0), {"r": 1.0})],
        ids=["box-x0", "box-d", "ball-x0"],
    )
    def test_wrong_lengths_raise_as_the_limits_do(self, x0, region):
        with pytest.raises(ValueError, match="points must have 2 components"):
            taylor_diagnostics(CUBIC2, x0, spec=QuadratureSpec(8), **region)

    def test_requires_exactly_one_region(self):
        with pytest.raises(ValueError):
            taylor_diagnostics(QUAD2, (0.0, 0.0), d=(1.0, 1.0), r=1.0)

    @pytest.mark.parametrize("region", [{"d": (1.0, 1.0)}, {"r": 1.0}], ids=["box", "ball"])
    def test_non_finite_increment_raises(self, region):
        field = ScalarField(
            dim=2,
            fn=lambda x: np.where(x[:, 0] > 0.5, np.inf, 0.0),
            grad=lambda x: np.zeros(2),
            hess=lambda x: np.zeros((2, 2)),
        )
        with pytest.raises(EvaluationError, match="non-finite increment inf"):
            taylor_diagnostics(field, (0.0, 0.0), spec=QuadratureSpec(8), **region)


@pytest.mark.parametrize("limit", [limit_gradient_box, limit_gradient_ball])
def test_non_finite_increment_raises_instead_of_nan(limit):
    field = ScalarField(dim=2, fn=lambda x: np.where(x[:, 0] > 0.5, np.inf, 0.0))
    arg = (1.0, 1.0) if limit is limit_gradient_box else 1.0
    with pytest.raises(EvaluationError, match="non-finite increment inf"):
        limit(field, (0.0, 0.0), arg, QuadratureSpec(8))


def test_raising_vectorized_field_names_first_failing_node():
    def fn(x):
        if np.any(x[:, 0] > 0.5):
            raise ValueError("outside the domain")
        return x[:, 0]

    spec = QuadratureSpec(8)
    points, _ = box_nodes((1.0, 1.0), spec)
    first = int(np.argmax(points[:, 0] > 0.5))
    with pytest.raises(EvaluationError, match=rf"node {first} "):
        limit_gradient_box(ScalarField(dim=2, fn=fn), (0.0, 0.0), (1.0, 1.0), spec)


def test_overflowing_moments_raise_instead_of_nan():
    with pytest.raises(EvaluationError, match="moments overflow"):
        limit_gradient_box(get_field("affine2").field, (0.0, 0.0), (1e100, 1e100), QuadratureSpec(8))
