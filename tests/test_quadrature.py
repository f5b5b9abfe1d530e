from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from simplexgrad import regions
from simplexgrad.closed_forms import ball_volume
from simplexgrad.gsg import EvaluationError, ScalarField
from simplexgrad.limits import box_moment_vector
from simplexgrad.quadrature import (
    QuadratureSpec,
    _ball_axes,
    _gl_axis,
    _legendre,
    abs_monomial_ball_integral,
    ball_nodes,
    box_nodes,
    monomial_ball_integral,
)


def shifted_quadratic_weight(x):
    # x1 * ((3+x1)^2 + (1+x2)^2 - 10), the moment integrand of the worked example
    return x[:, 0] * ((3.0 + x[:, 0]) ** 2 + (1.0 + x[:, 1]) ** 2 - 10.0)


def box_integral(g, d, spec=QuadratureSpec()):
    """``weights @ g(points)`` over the whole box rule."""
    points, weights = box_nodes(d, spec)
    return weights @ g(points)


def ball_integral(g, n, r, spec=QuadratureSpec()):
    """``weights @ g(points)`` over the whole ball rule."""
    points, weights = ball_nodes(n, r, spec)
    return weights @ g(points)


class TestIntegrateBox:
    def test_volume(self):
        assert box_integral(lambda x: np.ones(x.shape[0]), (2.0, 3.0)) == pytest.approx(6.0, abs=1e-12)

    def test_separable_polynomial(self):
        assert box_integral(lambda x: x[:, 0] * x[:, 1], (1.0, 1.0)) == pytest.approx(0.25, abs=1e-13)

    def test_shifted_quadratic_moment(self):
        assert box_integral(shifted_quadratic_weight, (1.0, 1.0)) == pytest.approx(35.0 / 12.0, abs=1e-12)

    def test_exact_for_low_degree_monomials(self):
        spec = QuadratureSpec(nodes_per_axis=4)  # exact through per-axis degree 7
        for p, q in itertools.product(range(8), repeat=2):
            exact = 2.0 ** (p + 1) / (p + 1) * 3.0 ** (q + 1) / (q + 1)
            got = box_integral(lambda x, p=p, q=q: x[:, 0] ** p * x[:, 1] ** q, (2.0, 3.0), spec)
            assert got == pytest.approx(exact, rel=1e-12)

    def test_scalar_callable_supported(self):
        field = ScalarField(2, lambda x: float(x[0]) * float(x[1]))
        got = box_integral(field, (1.0, 1.0), QuadratureSpec(4))
        assert got == pytest.approx(0.25, abs=1e-13)

    def test_against_adaptive_oracle(self):
        got = box_integral(lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]), (1.0, 2.0))
        oracle, _ = dblquad(lambda y, x: math.exp(x) * math.cos(y), 0.0, 1.0, 0.0, 2.0)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_non_finite_integrand_names_node(self):
        # the package evaluates a field over a rule only in the moment walk, which names the failing node
        field = ScalarField(2, lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0))
        with pytest.raises(EvaluationError, match="node"):
            box_moment_vector(field, (0.0, 0.0), (1.0, 1.0))

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            box_nodes((1.0, -1.0))


class TestIntegrateBall:
    def test_area(self):
        assert ball_integral(lambda x: np.ones(x.shape[0]), 2, 1.0) == pytest.approx(math.pi, abs=1e-10)

    def test_squared_coordinate(self):
        assert ball_integral(lambda x: x[:, 0] ** 2, 2, 1.0) == pytest.approx(math.pi / 4.0, abs=1e-8)

    def test_shifted_quadratic_moment(self):
        assert ball_integral(shifted_quadratic_weight, 2, 1.0) == pytest.approx(1.5 * math.pi, abs=1e-9)

    def test_three_dimensional_volume(self):
        assert ball_integral(lambda x: np.ones(x.shape[0]), 3, 2.0) == pytest.approx(
            ball_volume(3, 2.0), rel=1e-10
        )


class TestMonomialOracles:
    def test_odd_exponent_vanishes(self):
        assert monomial_ball_integral((1, 0), 2, 1.0) == 0.0

    def test_zero_exponents_recover_volume(self):
        for n in (2, 3, 4, 5):
            assert monomial_ball_integral((0,) * n, n, 1.3) == pytest.approx(ball_volume(n, 1.3), rel=1e-13)

    def test_squared_coordinate_value(self):
        assert monomial_ball_integral((2, 0), 2, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-13)

    def test_abs_first_power(self):
        assert abs_monomial_ball_integral((1, 0), 2, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_abs_zero_exponents_recover_volume(self):
        for n in (2, 3, 4):
            assert abs_monomial_ball_integral((0,) * n, n, 2.0) == pytest.approx(ball_volume(n, 2.0), rel=1e-13)

    def test_abs_single_power_is_volume_ratio(self):
        # integral of |x_1| over the ball equals V_{n+1}(r) / pi
        for n in (2, 3, 4, 5):
            alpha = (1,) + (0,) * (n - 1)
            assert abs_monomial_ball_integral(alpha, n, 1.7) == pytest.approx(
                ball_volume(n + 1, 1.7) / math.pi, rel=1e-13
            )

    def test_quadrature_matches_oracle(self):
        for n in (2, 3):
            for alpha in itertools.product(range(5), repeat=n):
                if sum(alpha) > 4:
                    continue
                got = ball_integral(
                    lambda x, alpha=alpha: np.prod(x ** np.asarray(alpha), axis=1), n, 1.0
                )
                exact = monomial_ball_integral(alpha, n, 1.0)
                if exact == 0.0:
                    assert abs(got) < 1e-10
                else:
                    assert got == pytest.approx(exact, rel=1e-8)

    def test_abs_quadrature_cross_check(self):
        # the kink at x1 = 0 limits the attainable order, so this needs a
        # dense rule to reach 1e-6
        got = ball_integral(lambda x: np.abs(x[:, 0]), 2, 1.0, QuadratureSpec(1024))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_doubling_nodes_never_hurts(self):
        alpha = (2, 4)
        exact = monomial_ball_integral(alpha, 2, 1.0)
        errors = []
        for m in (8, 16, 32, 64):
            got = ball_integral(lambda x: x[:, 0] ** 2 * x[:, 1] ** 4, 2, 1.0, QuadratureSpec(m))
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-15

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            monomial_ball_integral((1, -1), 2, 1.0)
        with pytest.raises(ValueError):
            monomial_ball_integral((1, 0, 0), 2, 1.0)

    @pytest.mark.parametrize("oracle", [monomial_ball_integral, abs_monomial_ball_integral])
    @pytest.mark.parametrize("alpha", [(1.5, 0.5), (2.0, 0.0), ("2", "0")], ids=["fraction", "float", "string"])
    def test_non_integer_exponents_rejected(self, oracle, alpha):
        # (1.5, 0.5) was truncated to (1, 0), whose integral is 0.0
        with pytest.raises(ValueError, match="exponents must be integers"):
            oracle(alpha, 2, 1.0)


def test_ball_nodes_weights_integrate_volume():
    for n in (2, 3, 4):
        _, w = ball_nodes(n, 1.0, QuadratureSpec(16))
        assert float(np.sum(w)) == pytest.approx(ball_volume(n, 1.0), rel=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=1)


@pytest.mark.parametrize("m", [4.5, 4.0, "4", None])
def test_non_integer_nodes_per_axis_rejected(m):
    with pytest.raises(ValueError, match="must be an integer"):
        QuadratureSpec(m)


def test_numpy_integer_nodes_per_axis_accepted():
    assert box_nodes((1.0,), QuadratureSpec(np.int64(3)))[0].shape == (3, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_extent_rejected(bad):
    with pytest.raises(ValueError, match="side lengths must be finite"):
        box_nodes((1.0, bad))
    with pytest.raises(ValueError, match="radius must be finite"):
        ball_nodes(2, bad)


def test_legendre_rule_is_cached_and_read_only():
    q, w = _legendre(7)
    assert _legendre(7)[0] is q
    assert not q.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        q[0] = 0.0
    nodes, weights = _gl_axis(-1.0, 1.0, 7)
    fresh = [a.copy() for a in _gl_axis(-1.0, 1.0, 7)]
    nodes[:] = 5.0
    weights[:] = 5.0
    for got, want in zip(_gl_axis(-1.0, 1.0, 7), fresh):
        assert np.array_equal(got, want)
    for cached, computed in zip(_legendre(7), np.polynomial.legendre.leggauss(7)):
        assert np.array_equal(cached, computed)


def test_ball_axis_factors_are_cached_and_read_only():
    rho, radial, units, angular = factors = _ball_axes(3, 1.0, 8)
    assert _ball_axes(3, 1.0, 8) is factors
    assert rho.shape == radial.shape == (8,) and angular.shape == (64,)
    assert units.shape == (3, 64) and units.flags.c_contiguous
    assert np.allclose(np.linalg.norm(units, axis=0), 1.0, rtol=0.0, atol=1e-15)
    for a in factors:
        assert not a.flags.writeable


def _builder(kind: str, n: int, m: int):
    spec = QuadratureSpec(m)
    if kind == "box":
        return lambda part=None: box_nodes((1.0, 0.5, 2.0)[:n], spec, part)
    return lambda part=None: ball_nodes(n, 1.3, spec, part)


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("n, m", [(2, 8), (2, 7), (3, 8), (3, 7)])
def test_parts_concatenate_to_the_full_rule_bitwise(kind, n, m, monkeypatch):
    # three first-axis slices a part, so the last part is partial (8 = 3+3+2, 7 = 3+3+1)
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 3 * m ** (n - 1))
    bounds = list(regions._block_bounds(m, m ** (n - 1)))
    assert bounds[0] == (0, 3) and bounds[-1][1] == m and bounds[-1][1] - bounds[-1][0] < 3
    build = _builder(kind, n, m)
    parts = [build(part) for part in bounds]
    points, weights = build()
    assert [p.shape for p, _ in parts] == [((hi - lo) * m ** (n - 1), n) for lo, hi in bounds]
    assert np.concatenate([p for p, _ in parts]).tobytes() == points.tobytes()
    assert np.concatenate([w for _, w in parts]).tobytes() == weights.tobytes()
    whole = build((0, m))
    assert whole[0].tobytes() == points.tobytes() and whole[1].tobytes() == weights.tobytes()


@pytest.mark.parametrize("n, m", [(2, 8), (3, 7)])
def test_ball_points_are_coordinate_major(n, m, monkeypatch):
    # points.T is what the moment walk reads: one contiguous row per coordinate, whole and by part
    monkeypatch.setattr(regions, "BLOCK_COLUMNS", 3 * m ** (n - 1))
    build = _builder("ball", n, m)
    for part in [None, *regions._block_bounds(m, m ** (n - 1))]:
        points, weights = build(part)
        assert points.T.flags.c_contiguous and points.shape == (weights.size, n)


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize(
    "part, message",
    [
        ((1.5, 3), "must be two integers"),
        ((0, 2.0), "must be two integers"),
        (("0", "2"), "must be two integers"),
        ((0, 1, 2), "must be two integers"),
        (3, "must be two integers"),
        ((3, 3), r"must satisfy 0 <= lo < hi <= 8"),
        ((4, 2), r"must satisfy 0 <= lo < hi <= 8"),
        ((-1, 2), r"must satisfy 0 <= lo < hi <= 8"),
        ((0, 9), r"must satisfy 0 <= lo < hi <= 8"),
    ],
)
def test_bad_part_rejected(kind, part, message):
    with pytest.raises(ValueError, match=message):
        _builder(kind, 2, 8)(part)


def test_numpy_integer_part_accepted():
    build = _builder("ball", 2, 8)
    assert build((np.int64(2), np.int64(5)))[0].tobytes() == build((2, 5))[0].tobytes()
