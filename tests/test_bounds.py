from __future__ import annotations

import math

import numpy as np
import pytest

from simplexgrad.bounds import (
    RankDeficiencyError,
    centered_bound,
    classical_bound,
    limit_bound_ball,
    limit_bound_box,
)
from simplexgrad.experiments import antipodal_half
from simplexgrad.fields import get_field
from simplexgrad.gsg import ScalarField, simplex_gradient
from simplexgrad.limits import limit_gradient_ball
from simplexgrad.linalg import pseudoinverse, spectral_norm
from simplexgrad.quadrature import QuadratureSpec
from simplexgrad.regions import (
    BallRegion,
    HyperrectRegion,
    SampleMatrix,
    ball_grid_sample,
    rect_arbitrary_sample,
    rect_grid_sample,
    sample_radius,
)

RNG = np.random.default_rng(2718)


def literal_classical_value(s: np.ndarray, lip: float) -> float:
    radius = sample_radius(s)
    shat = s / radius
    return math.sqrt(s.shape[1]) / 2.0 * lip * spectral_norm(pseudoinverse(shat.T)) * radius


class TestClassicalBound:
    def test_coordinate_sample(self):
        for n in (2, 3, 5):
            s = 0.7 * np.eye(n)
            report = classical_bound(s, 3.0)
            assert report.value == pytest.approx(math.sqrt(n) / 2.0 * 3.0 * 0.7, rel=1e-12)

    def test_matches_literal_formula(self):
        for _ in range(20):
            s = RNG.normal(size=(int(RNG.integers(2, 5)), int(RNG.integers(5, 20))))
            lip = float(RNG.uniform(0.1, 4.0))
            assert classical_bound(s, lip).value == pytest.approx(literal_classical_value(s, lip), rel=1e-10)

    def test_scaling_homogeneity(self):
        s = RNG.normal(size=(3, 9))
        base = classical_bound(s, 2.0)
        scaled = classical_bound(4.0 * s, 2.0)
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-12)
        assert scaled.constants["pinv_norm"] == pytest.approx(base.constants["pinv_norm"], rel=1e-12)

    def test_rank_deficient_rejected(self):
        s = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficiencyError):
            classical_bound(s, 1.0)

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            classical_bound(np.eye(2), -1.0)


class TestCenteredBound:
    def test_coordinate_half_sample(self):
        for n in (2, 4):
            a = 0.9 * np.eye(n)
            report = centered_bound(a, 5.0)
            assert report.value == pytest.approx(math.sqrt(2 * n) / 6.0 * 5.0 * 0.9**2, rel=1e-12)
            assert report.constants["n_samples"] == 2 * n

    def test_quadratic_field_zero_bound_and_error(self):
        quad = get_field("quad2")
        a = RNG.normal(size=(2, 6))
        s = np.hstack([a, -a])
        est = simplex_gradient(quad.field, (3.0, 1.0), s)
        report = centered_bound(a, quad.hess_lipschitz_on((3.0, 1.0), sample_radius(s)))
        assert report.value == 0.0
        assert est.error <= 1e-9

    def test_cubic_field_dominates_over_seeded_trials(self):
        cubic = get_field("cubic2")
        x0 = np.array([1.0, 1.0])
        for trial in range(100):
            rng = np.random.default_rng(trial)
            a = rng.uniform(-0.5, 0.5, size=(2, 5))
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[-1] <= 1e-6 * sv[0]:
                continue
            s = np.hstack([a, -a])
            radius = sample_radius(s)
            est = simplex_gradient(cubic.field, x0, s)
            report = centered_bound(a, cubic.hess_lipschitz_on(x0, radius))
            assert est.error <= report.value + 1e-9

    def test_rank_deficient_half_rejected(self):
        with pytest.raises(RankDeficiencyError):
            centered_bound(np.array([[1.0, 2.0], [2.0, 4.0]]), 1.0)

    def test_empty_half_rejected(self):
        with pytest.raises(ValueError, match="sample matrix is empty"):
            centered_bound(np.zeros((2, 0)), 1.0)

    def test_delta_is_the_radius_of_the_mirrored_sample(self):
        a = np.random.default_rng(5).normal(size=(3, 7))
        s = np.hstack([a, -a])
        assert centered_bound(a, 2.0).constants["radius"] == sample_radius(s)

    @pytest.mark.parametrize("bound", [classical_bound, centered_bound], ids=["classical", "centered"])
    def test_all_zero_sample_is_rank_deficient(self, bound):
        with pytest.raises(RankDeficiencyError):
            bound(np.zeros((2, 3)), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "bound",
    [
        lambda lip: classical_bound(np.eye(2), lip),
        lambda lip: centered_bound(np.eye(2), lip),
        lambda lip: limit_bound_box((1.0, 2.0), lip),
        lambda lip: limit_bound_ball(2, 1.0, lip),
        lambda r: limit_bound_ball(2, r, 1.0),
    ],
    ids=["classical", "centered", "limit-box", "limit-ball", "limit-ball-radius"],
)
def test_non_finite_constants_rejected(bound, value):
    with pytest.raises(ValueError, match="finite"):
        bound(value)



@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("bound", [classical_bound, centered_bound], ids=["classical", "centered"])
def test_bad_lipschitz_constant_is_rejected_before_the_sample_is_walked(bound, value):
    sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (4, 4)))
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        bound(sample, value)
    assert sample._sums is None

class TestFewerColumnsThanRows:
    """The SVD of an n x N sample with N < n has only N singular values; the missing one is 0."""

    def test_classical_bound_rejects_a_single_column(self):
        s = np.array([[1.0], [0.0]])
        with pytest.raises(RankDeficiencyError):
            classical_bound(s, 1.0)
        # why: f = 5 x_2 has L = 0, yet the estimate from this sample misses its whole gradient
        field = ScalarField(2, lambda x: 5.0 * x[:, 1], grad=lambda x: np.array([0.0, 5.0]))
        assert simplex_gradient(field, (0.0, 0.0), s).error == 5.0

    def test_centered_bound_rejects_a_single_column(self):
        with pytest.raises(RankDeficiencyError):
            centered_bound(np.array([[1.0], [0.5]]), 1.0)

    def test_sample_matrix_with_fewer_columns_rejected(self):
        sample = SampleMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "wide", None)
        with pytest.raises(RankDeficiencyError):
            classical_bound(sample, 1.0)
        with pytest.raises(RankDeficiencyError):
            centered_bound(sample, 1.0)


def svd_classical_value(s: np.ndarray, lip: float) -> float:
    """The classical bound from an SVD of S / Delta, as computed before the Gram route."""
    radius = sample_radius(s)
    smin = np.linalg.svd(s / radius, compute_uv=False)[-1]
    return math.sqrt(s.shape[1]) / 2.0 * lip * (1.0 / smin) * radius


def svd_centered_value(a: np.ndarray, lip: float, delta: float) -> float:
    smin = np.linalg.svd(a / delta, compute_uv=False)[-1]
    return math.sqrt(2 * a.shape[1]) / 6.0 * lip * (1.0 / smin) * delta**2


SPECTRAL_SAMPLES = {
    "rect-2d": lambda: rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 2.0), (16, 12))),
    "rect-3d": lambda: rect_grid_sample(HyperrectRegion((0.0,) * 3, (1.0, 0.5, 2.0), (6, 7, 8))),
    "rect-arbitrary-2d": lambda: rect_arbitrary_sample(HyperrectRegion((0.0, 0.0), (3.0, 1.0), (20, 9)), seed=4),
    "rect-arbitrary-3d": lambda: rect_arbitrary_sample(HyperrectRegion((0.0,) * 3, (1.0, 1.0, 1.0), (5, 6, 7)), seed=5),
    "ball-2d": lambda: ball_grid_sample(BallRegion((0.0, 0.0), 2.0, (9, 16))),
    "ball-3d": lambda: ball_grid_sample(BallRegion((0.0,) * 3, 1.0, (5, 8, 7))),
}


class TestSpectralRoute:
    @pytest.mark.parametrize("name", list(SPECTRAL_SAMPLES))
    def test_classical_matches_svd(self, name):
        sample = SPECTRAL_SAMPLES[name]()
        want = svd_classical_value(np.array(sample.directions), 1.7)
        assert classical_bound(sample, 1.7).value == pytest.approx(want, rel=1e-12)
        assert classical_bound(np.array(sample.directions), 1.7).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", list(SPECTRAL_SAMPLES))
    def test_centered_matches_svd(self, name):
        sample = SPECTRAL_SAMPLES[name]()
        half = np.array(sample.directions)
        delta = sample_radius(sample)
        want = svd_centered_value(half, 0.8, delta)
        assert centered_bound(half, 0.8).value == pytest.approx(want, rel=1e-12)
        assert centered_bound(sample, 0.8).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n2", [4, 6, 10, 16, 32, 50, 64])
    def test_mirrored_ball_half_matches_svd(self, n2):
        sample = ball_grid_sample(BallRegion((0.3, -0.2), 2.5, (12, n2)))
        half = antipodal_half(sample)
        delta = sample_radius(sample)
        # the halved Gram of S: no pass over the half's columns and no half array
        value = centered_bound(half, 6.0).value
        assert "directions" not in vars(half)
        want = svd_centered_value(half.directions, 6.0, delta)
        assert value == pytest.approx(want, rel=1e-12)

    def test_thin_box_falls_back_to_svd_exactly(self):
        sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1e-8), (8, 8)))
        _, eigvals = sample.gram_spectrum
        assert eigvals[0] < 1e-6 * eigvals[-1]  # cond(S) > 1e3: outside the Gram route
        assert classical_bound(sample, 2.0).value == svd_classical_value(np.array(sample.directions), 2.0)
        delta = sample_radius(sample)
        assert centered_bound(sample, 3.0).value == svd_centered_value(
            np.array(sample.directions), 3.0, delta
        )

    def test_rank_deficient_sample_matrix_rejected(self):
        directions = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        sample = SampleMatrix(directions, "rect-grid", np.array([[1, 1], [2, 1], [3, 1]]))
        with pytest.raises(RankDeficiencyError):
            classical_bound(sample, 1.0)
        with pytest.raises(RankDeficiencyError):
            centered_bound(sample, 1.0)


class TestLimitBoundBox:
    def test_hypercube_form_is_tighter(self):
        for n in range(2, 8):
            d = (0.8,) * n
            report = limit_bound_box(d, 1.7)
            assert report.kind == "limit-hypercube"
            assert report.value < report.constants["general_value"]

    def test_unit_square_value(self):
        report = limit_bound_box((1.0, 1.0), 2.0)
        assert report.value == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-12)
        # the worked-example limit error is far below the bound
        assert 5.0 * math.sqrt(2.0) / 7.0 <= report.value

    def test_general_form_value(self):
        d = np.array([2.0, 1.0])
        report = limit_bound_box(d, 3.0)
        assert report.kind == "limit-box"
        radius = math.sqrt(5.0)
        assert report.value == pytest.approx(1.5 * math.sqrt(2.0) * 3.0 * radius**2 / 1.0, rel=1e-12)

    def test_zero_lipschitz_gives_zero(self):
        assert limit_bound_box((1.0, 2.0), 0.0).value == 0.0

    def test_hypercube_detection_is_exact(self):
        report = limit_bound_box((1.0, 1.0 + 1e-12), 1.0)
        assert report.kind == "limit-box"


class TestLimitBoundBall:
    def test_quadratic_zero(self):
        assert limit_bound_ball(2, 1.0, 0.0).value == 0.0

    def test_cubic_dominates_limit_error(self):
        cubic = get_field("cubic2")
        x0 = (1.0, 1.0)
        report = limit_bound_ball(2, 1.0, cubic.hess_lipschitz_on(x0, 1.0))
        expected = math.sqrt(2.0) / (3.0 * math.sqrt(math.pi)) * 6.0 * (8.0 / (3.0 * math.pi))
        assert report.value == pytest.approx(expected, rel=1e-12)
        res = limit_gradient_ball(cubic.field, x0, 1.0, QuadratureSpec(64))
        actual = np.linalg.norm(res.estimate - cubic.field.gradient(x0))
        assert actual <= report.value

    def test_quadratic_radius_scaling(self):
        values = [limit_bound_ball(3, r, 2.5).value / r**2 for r in (1.0, 0.5, 0.25)]
        assert max(values) - min(values) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_bound_ball(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            limit_bound_ball(2, -1.0, 1.0)
