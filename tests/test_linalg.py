from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from simplexgrad.linalg import gamma_half_integer, pseudoinverse, spectral_norm

RNG = np.random.default_rng(20240811)


def penrose_residuals(a: np.ndarray, a_pinv: np.ndarray) -> float:
    scale = max(1.0, np.linalg.norm(a))
    r1 = np.linalg.norm(a @ a_pinv @ a - a) / scale
    r2 = np.linalg.norm(a_pinv @ a @ a_pinv - a_pinv) / max(1.0, np.linalg.norm(a_pinv))
    r3 = np.linalg.norm((a @ a_pinv).T - a @ a_pinv)
    r4 = np.linalg.norm((a_pinv @ a).T - a_pinv @ a)
    return max(r1, r2, r3, r4)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(pseudoinverse(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]), atol=1e-14)

    def test_square_example_grid_right_inverse(self):
        s = np.array([[4.0, 8, 12, 4, 8, 12], [3.0, 3, 3, 6, 6, 6]])
        p = pseudoinverse(s)
        assert np.allclose(s @ p, np.eye(2), atol=1e-10)
        assert penrose_residuals(s, p) < 1e-10

    def test_penrose_identities_random(self):
        for _ in range(60):
            n = int(RNG.integers(1, 7))
            m = int(RNG.integers(1, 41))
            a = RNG.normal(size=(n, m))
            assert penrose_residuals(a, pseudoinverse(a)) < 1e-9

    def test_full_row_rank_equals_normal_equation_form(self):
        for _ in range(20):
            n = int(RNG.integers(2, 6))
            m = n + int(RNG.integers(1, 20))
            a = RNG.normal(size=(n, m))
            expected = a.T @ np.linalg.inv(a @ a.T)
            got = pseudoinverse(a)
            assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-9

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        p = pseudoinverse(a)
        assert penrose_residuals(a, p) < 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            pseudoinverse(np.array([[1.0, np.nan]]))


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal_max_abs(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_matches_gram_eigenvalue(self):
        for _ in range(30):
            a = RNG.normal(size=(int(RNG.integers(1, 6)), int(RNG.integers(1, 8))))
            lam = np.linalg.eigvalsh(a.T @ a)[-1]
            assert spectral_norm(a) == pytest.approx(math.sqrt(max(lam, 0.0)), abs=1e-10)

    def test_normalized_limit_matrix_value(self):
        # n = 2 normalized dense-limit matrix has spectral norm 12
        m = np.array([[48.0 / 7.0, -36.0 / 7.0], [-36.0 / 7.0, 48.0 / 7.0]])
        assert spectral_norm(m) == pytest.approx(12.0, abs=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(np.array([[np.inf]]))


class TestGammaHalfInteger:
    def test_known_values(self):
        assert gamma_half_integer(2) == 1.0
        assert gamma_half_integer(1) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma_half_integer(5) == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, rel=1e-15)

    def test_recurrence_exact(self):
        for two_k in range(1, 40):
            assert gamma_half_integer(two_k + 2) == pytest.approx(
                (two_k / 2.0) * gamma_half_integer(two_k), rel=1e-15
            )

    def test_matches_scipy(self):
        for two_k in range(1, 30):
            assert gamma_half_integer(two_k) == pytest.approx(float(scipy_gamma(two_k / 2.0)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_half_integer(0)
        with pytest.raises(ValueError):
            gamma_half_integer(-3)
