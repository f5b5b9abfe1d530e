from __future__ import annotations

import numpy as np
import pytest

from simplexgrad.bounds import classical_bound
from simplexgrad.fields import get_field, make_affine
from simplexgrad.gsg import (
    EvaluationError,
    GradientEstimate,
    ScalarField,
    function_increments,
    simplex_gradient,
)
from simplexgrad.limits import limit_gradient_box
from simplexgrad.linalg import pseudoinverse
from simplexgrad.quadrature import QuadratureSpec, integrate_box
from simplexgrad.regions import HyperrectRegion, ball_grid_sample, BallRegion, rect_grid_sample

RNG = np.random.default_rng(314)

QUAD2 = get_field("quad2").field
SQUARE_SAMPLE = rect_grid_sample(HyperrectRegion((0.0, 0.0), (12.0, 6.0), (3, 2)))


def random_full_rank_sample(n: int, cols: int) -> np.ndarray:
    while True:
        s = RNG.uniform(-1.0, 1.0, size=(n, cols))
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            return s


class TestFunctionIncrements:
    def test_constant_field(self):
        field = ScalarField(dim=2, fn=lambda x: np.full(x.shape[0], 7.0))
        assert np.allclose(function_increments(field, (0.0, 0.0), SQUARE_SAMPLE), 0.0)

    def test_linear_field_gives_inner_products(self):
        g = np.array([2.0, -1.0])
        field = ScalarField(dim=2, fn=lambda x: x @ g)
        inc = function_increments(field, (5.0, -3.0), SQUARE_SAMPLE)
        assert np.allclose(inc, SQUARE_SAMPLE.directions.T @ g, atol=1e-12)

    def test_quadratic_direct_arithmetic(self):
        inc = function_increments(QUAD2, (3.0, 1.0), SQUARE_SAMPLE)
        # first column (4, 3): f(7, 4) - f(3, 1) = 65 - 10
        assert inc[0] == pytest.approx(55.0, abs=1e-12)

    def test_evaluation_error_names_column(self):
        def scalar_fn(p):
            if p[0] > 10:
                raise RuntimeError("boom")
            return float(p[0])

        field = ScalarField(dim=2, fn=scalar_fn)
        with pytest.raises(EvaluationError, match="column 2"):
            function_increments(field, (0.0, 0.0), SQUARE_SAMPLE)

    def test_non_finite_value_names_column(self):
        field = ScalarField(dim=2, fn=lambda x: np.where(x[:, 0] > 10, np.nan, 1.0))
        with pytest.raises(EvaluationError, match="column 2"):
            function_increments(field, (0.0, 0.0), SQUARE_SAMPLE)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            function_increments(QUAD2, (0.0, 0.0, 0.0), SQUARE_SAMPLE)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda field: function_increments(field, (0.0, 0.0), SQUARE_SAMPLE),
        lambda field: limit_gradient_box(field, (0.0, 0.0), (1.0, 1.0), QuadratureSpec(4)),
        lambda field: integrate_box(field.fn, (1.0, 1.0), QuadratureSpec(4)),
    ],
    ids=["function_increments", "limit_gradient_box", "integrate_box"],
)
def test_memory_error_propagates_after_one_call(evaluate):
    calls = []

    def fn(x):
        calls.append(x)
        raise MemoryError

    with pytest.raises(MemoryError):
        evaluate(ScalarField(dim=2, fn=fn))
    assert len(calls) == 1


class TestSimplexGradient:
    def test_exact_on_linear_fields(self):
        for _ in range(20):
            n = int(RNG.integers(2, 5))
            entry = make_affine(n, seed=int(RNG.integers(0, 10**6)))
            s = random_full_rank_sample(n, n + int(RNG.integers(0, 12)))
            est = simplex_gradient(entry.field, RNG.normal(size=n), s)
            assert np.linalg.norm(est.estimate - est.true_gradient) < 1e-10

    def test_dense_grids_approach_limit_value(self):
        x0 = np.array([3.0, 1.0])
        target = np.array([47.0 / 7.0, 19.0 / 7.0])
        errors = []
        for k in (2, 3, 4, 5, 6):
            sample = rect_grid_sample(HyperrectRegion(tuple(x0), (1.0, 1.0), (2**k, 2**k)))
            est = simplex_gradient(QUAD2, x0, sample)
            errors.append(np.linalg.norm(est.estimate - target))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 5e-2

    def test_mirrored_sample_exact_on_quadratics(self):
        a = random_full_rank_sample(2, 5)
        s = np.hstack([a, -a])
        est = simplex_gradient(QUAD2, (3.0, 1.0), s)
        assert np.linalg.norm(est.estimate - est.true_gradient) < 1e-10

    def test_translation_equivariance(self):
        shift = np.array([0.4, -1.1])
        shifted = ScalarField(dim=2, fn=lambda x: QUAD2(x - shift), grad=lambda x: QUAD2.gradient(x - shift))
        x0 = np.array([3.0, 1.0])
        s = random_full_rank_sample(2, 7)
        base = simplex_gradient(QUAD2, x0, s)
        moved = simplex_gradient(shifted, x0 + shift, s)
        assert np.allclose(base.estimate, moved.estimate, atol=1e-10)

    def test_normal_equation_and_pseudoinverse_routes_agree(self):
        cubic = get_field("cubic2").field
        for _ in range(10):
            s = random_full_rank_sample(2, int(RNG.integers(2, 30)))
            df = function_increments(cubic, (1.0, 1.0), s)
            via_pinv = pseudoinverse(s).T @ df
            est = simplex_gradient(cubic, (1.0, 1.0), s)
            assert np.linalg.norm(est.estimate - via_pinv) <= 1e-9 * max(1.0, np.linalg.norm(via_pinv))

    def test_wide_rank_deficient_falls_back_to_pseudoinverse(self):
        # duplicated row: row rank 1, three columns
        s = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        field = ScalarField(dim=2, fn=lambda x: x[:, 0] + x[:, 1])
        est = simplex_gradient(field, (0.0, 0.0), s)
        df = function_increments(field, (0.0, 0.0), s)
        assert np.allclose(est.estimate, pseudoinverse(s).T @ df, atol=1e-10)

    def test_error_below_classical_bound_on_suite_grids(self):
        for fid in ("quad2", "cubic2"):
            entry = get_field(fid)
            x0 = np.array(entry.anchor)
            for k in (2, 3, 4):
                sample = rect_grid_sample(HyperrectRegion(tuple(x0), (1.0, 1.0), (2**k, 2**k)))
                est = simplex_gradient(entry.field, x0, sample)
                lip = entry.grad_lipschitz_on(x0, est.radius)
                assert est.error <= classical_bound(sample, lip).value + 1e-9

    def test_estimate_metadata(self):
        sample = ball_grid_sample(BallRegion((3.0, 1.0), 1.0, (4, 8)))
        est = simplex_gradient(QUAD2, (3.0, 1.0), sample)
        assert est.n_samples == 32
        assert est.radius == pytest.approx(1.0, abs=1e-12)
        assert est.true_gradient is not None and est.error is not None

    def test_limit_consistency_with_quadrature_limit(self):
        # fine grid estimate sits close to the closed-form dense limit
        x0 = np.array([3.0, 1.0])
        sample = rect_grid_sample(HyperrectRegion(tuple(x0), (1.0, 1.0), (256, 256)))
        est = simplex_gradient(QUAD2, x0, sample)
        lim = limit_gradient_box(QUAD2, x0, (1.0, 1.0), QuadratureSpec(64))
        assert np.linalg.norm(est.estimate - lim.estimate) < 2e-2


class TestScalarField:
    def test_scalar_callable_fallback(self):
        field = ScalarField(dim=2, fn=lambda p: float(p[0]) ** 2)
        vals = field(np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert np.allclose(vals, [1.0, 9.0])

    def test_missing_gradient_raises(self):
        field = ScalarField(dim=2, fn=lambda x: x[:, 0])
        with pytest.raises(ValueError, match="gradient"):
            field.gradient((0.0, 0.0))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            QUAD2(np.zeros((4, 3)))


class TestRouteAndConditioning:
    def test_well_conditioned_grid(self):
        sample = rect_grid_sample(HyperrectRegion((3.0, 1.0), (1.0, 2.0), (16, 16)))
        est = simplex_gradient(QUAD2, (3.0, 1.0), sample)
        assert est.route == "normal-equations"
        assert est.cond == pytest.approx(np.linalg.cond(np.array(sample.directions)), rel=1e-10)
        assert "normal" not in est.to_csv_row()

    def test_rank_deficient_sample(self):
        s = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        est = simplex_gradient(QUAD2, (3.0, 1.0), s)
        assert est.route == "svd"
        assert est.cond > 1e7
        assert np.allclose(est.estimate, pseudoinverse(s).T @ function_increments(QUAD2, (3.0, 1.0), s))


def test_gradient_estimate_csv_row():
    est = GradientEstimate(
        estimate=np.array([1.0, 2.0]),
        x0=np.array([0.0, 0.0]),
        radius=1.5,
        n_samples=12,
        true_gradient=np.array([1.0, 2.0]),
        error=0.0,
    )
    row = est.to_csv_row()
    assert row.split(",")[1] == "12"
    assert "1.5" in row
    with_bounds = est.to_csv_row(bounds={"classical": 2.5, "limit-box": 4.0})
    assert with_bounds.endswith("classical=2.5;limit-box=4.0")
