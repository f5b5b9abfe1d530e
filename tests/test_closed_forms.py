from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from simplexgrad.closed_forms import (
    ball_gamma_ratio,
    ball_volume,
    dense_limit_matrix,
    grid_gram,
    grid_gram_inverse,
)
from simplexgrad.quadrature import ball_nodes, monomial_ball_integral
from simplexgrad.regions import HyperrectRegion, rect_grid_sample

RNG = np.random.default_rng(77)


class TestGridGram:
    def test_worked_example(self):
        g = grid_gram((3, 2), (4.0, 3.0))
        assert np.allclose(g, [[448.0, 216.0], [216.0, 135.0]], atol=1e-12)

    def test_unit_square_two_by_two(self):
        g = grid_gram((2, 2), (1.0, 1.0))
        assert np.allclose(g, [[10.0, 9.0], [9.0, 10.0]], atol=1e-12)

    def test_scales_with_cell_side_products(self):
        base = grid_gram((3, 4, 2), (1.0, 1.0, 1.0))
        h = np.array([0.7, 2.5, 1.3])
        scaled = grid_gram((3, 4, 2), h)
        assert np.allclose(scaled, base * np.outer(h, h), rtol=1e-13)

    def test_matches_brute_force_gram(self):
        for n in (2, 3, 4):
            for counts in itertools.product((2, 3, 5), repeat=n):
                d = RNG.uniform(0.3, 2.5, size=n)
                sample = rect_grid_sample(HyperrectRegion((0.0,) * n, tuple(d), counts))
                brute = sample.directions @ sample.directions.T
                closed = grid_gram(counts, d / np.array(counts))
                assert np.linalg.norm(brute - closed) / np.linalg.norm(closed) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_gram((1, 2), (1.0, 1.0))
        with pytest.raises(ValueError):
            grid_gram((2, 2), (1.0, -1.0))


class TestGridGramInverse:
    def test_inverse_of_worked_example(self):
        u = grid_gram((3, 2), (4.0, 3.0))
        inv = grid_gram_inverse((3, 2), (4.0, 3.0))
        assert np.max(np.abs(inv @ u.T - np.eye(2))) < 1e-12

    def test_symmetric_configuration_swap_invariant(self):
        inv = grid_gram_inverse((4, 4), (1.5, 1.5))
        assert np.allclose(inv, inv[::-1, ::-1], atol=1e-14)

    def test_matches_dense_inverse(self):
        for _ in range(30):
            n = int(RNG.integers(2, 6))
            counts = tuple(int(c) for c in RNG.integers(2, 9, size=n))
            h = RNG.uniform(0.2, 2.0, size=n)
            u = grid_gram(counts, h)
            dense = np.linalg.inv(u.T)
            closed = grid_gram_inverse(counts, h)
            assert np.linalg.norm(closed - dense) / np.linalg.norm(dense) < 1e-10


class TestDenseLimitMatrix:
    def test_unit_square(self):
        lim = dense_limit_matrix((1.0, 1.0))
        assert np.allclose(lim, np.array([[48.0, -36.0], [-36.0, 48.0]]) / 7.0, atol=1e-14)

    def test_rectangle_two_one(self):
        lim = dense_limit_matrix((2.0, 1.0))
        assert np.allclose(lim, np.array([[12.0, -18.0], [-18.0, 48.0]]) / 7.0, atol=1e-14)

    def test_factorization_through_side_lengths(self):
        d = np.array([0.5, 1.7, 2.2])
        lim = dense_limit_matrix(d)
        dinv = np.diag(1.0 / d)
        assert np.allclose(lim, dinv @ dense_limit_matrix(np.ones(3)) @ dinv, atol=1e-14)

    def test_sides_whose_entries_overflow_are_rejected_without_a_warning(self):
        with pytest.raises(ValueError, match=r"box sides \(1e-170, 1.0\) are too small"):
            dense_limit_matrix((1e-170, 1.0))
        assert np.isfinite(dense_limit_matrix((1e-150, 1.0))).all()

    def test_scaled_gram_inverse_converges(self):
        for n, d in ((2, (1.0, 1.0)), (2, (2.0, 1.0)), (3, (2.0, 1.0, 3.0))):
            target = dense_limit_matrix(d)
            errors = []
            for k in range(3, 11):
                counts = (2**k,) * n
                total = float(np.prod(counts))
                h = np.array(d) / np.array(counts)
                errors.append(np.linalg.norm(total * grid_gram_inverse(counts, h) - target))
            for coarse, fine in zip(errors, errors[1:]):
                assert fine < coarse
            assert errors[-1] <= 1e-2 * np.linalg.norm(target)


class TestNormalizedLimitNorm:
    def test_analytic_value_matches_the_two_norm(self):
        for n in range(2, 11):
            assert np.linalg.norm(dense_limit_matrix((1.0,) * n), 2) == pytest.approx(12.0, abs=1e-10)

    def test_unit_side_matrix_has_the_documented_entries_exactly(self):
        for n in range(2, 11):
            f = dense_limit_matrix((1.0,) * n)
            off = ~np.eye(n, dtype=bool)
            assert (np.diag(f) == 12.0 * (3 * n - 2) / (3 * n + 1)).all()
            assert (f[off] == -36.0 / (3 * n + 1)).all()

    def test_gram_eigenvalue_spectrum(self):
        for n in range(2, 9):
            f = dense_limit_matrix((1.0,) * n)
            eigs = np.sort(np.linalg.eigvalsh(f.T @ f))
            assert eigs[0] == pytest.approx(144.0 / (3 * n + 1) ** 2, abs=1e-8)
            assert np.allclose(eigs[1:], 144.0, atol=1e-8)


class TestBallConstants:
    def test_volumes(self):
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)
        assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
        assert ball_volume(4, 1.0) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)

    def test_volume_scaling(self):
        assert ball_volume(3, 2.0) == pytest.approx(8.0 * ball_volume(3, 1.0), rel=1e-14)

    def test_gamma_ratio_values(self):
        assert ball_gamma_ratio(2) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-13)
        assert ball_gamma_ratio(1) == pytest.approx(0.75, rel=1e-13)

    def test_gamma_ratio_increasing(self):
        values = [ball_gamma_ratio(n) for n in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))

    # the integral of x_i^2 over the ball of radius r is V_{n+2}(r) / (2 pi),
    # the constant in the ball limit (2 pi / V_{n+2}) T
    def test_second_moment_two_dimensional(self):
        assert ball_volume(4, 1.0) / (2.0 * math.pi) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_second_moment_matches_monomial_oracle(self):
        for n in (2, 3, 4):
            alpha = (2,) + (0,) * (n - 1)
            expected = monomial_ball_integral(alpha, n, 1.5)
            assert ball_volume(n + 2, 1.5) / (2.0 * math.pi) == pytest.approx(expected, rel=1e-10)

    def test_second_moment_matches_quadrature(self):
        points, weights = ball_nodes(2, 1.0)
        diag = weights @ points[:, 0] ** 2
        off = weights @ (points[:, 0] * points[:, 1])
        assert ball_volume(4, 1.0) / (2.0 * math.pi) == pytest.approx(diag, abs=1e-8)
        assert abs(off) < 1e-8
