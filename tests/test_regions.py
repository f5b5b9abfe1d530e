from __future__ import annotations

import io
import math

import numpy as np
import pytest
import sympy

from simplexgrad.closed_forms import grid_gram
from simplexgrad.linalg import pseudoinverse
from simplexgrad.regions import (
    BallRegion,
    BudgetExceededError,
    HyperrectRegion,
    SampleMatrix,
    ball_grid_sample,
    grid_jacobian,
    rect_arbitrary_sample,
    rect_grid_sample,
    sample_radius,
)

SQUARE_REGION = HyperrectRegion(x0=(0.0, 0.0), d=(12.0, 6.0), counts=(3, 2))


class TestRectGrid:
    def test_worked_example_blocks(self):
        sample = rect_grid_sample(SQUARE_REGION)
        expected = np.array([[4.0, 8, 12, 4, 8, 12], [3.0, 3, 3, 6, 6, 6]])
        assert np.array_equal(sample.directions, expected)
        assert sample.tag == "rect-grid"

    def test_unit_square_columns_in_order(self):
        sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (2, 2)))
        expected = np.array([[0.5, 1.0, 0.5, 1.0], [0.5, 0.5, 1.0, 1.0]])
        assert np.allclose(sample.directions, expected, atol=1e-15)

    def test_column_order_last_block_index_fastest(self):
        sample = rect_grid_sample(HyperrectRegion((0.0,) * 3, (1.0, 1.0, 1.0), (2, 2, 2)))
        # leading index j cycles fastest, then z3, then z2
        assert sample.indices[:4].tolist() == [[1, 1, 1], [2, 1, 1], [1, 1, 2], [2, 1, 2]]

    def test_gram_matches_closed_form_in_three_dimensions(self):
        region = HyperrectRegion((0.0,) * 3, (1.0, 2.0, 3.0), (2, 2, 2))
        sample = rect_grid_sample(region)
        closed = grid_gram(region.counts, region.sublengths)
        assert np.max(np.abs(sample.directions @ sample.directions.T - closed)) < 1e-12

    def test_full_row_rank(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            counts = tuple(int(c) for c in rng.integers(2, 6, size=n))
            d = tuple(rng.uniform(0.5, 2.0, size=n))
            sample = rect_grid_sample(HyperrectRegion((0.0,) * n, d, counts))
            s = np.linalg.svd(sample.directions, compute_uv=False)
            assert s[-1] > 1e-10 * s[0]

    def test_column_count(self):
        sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (3, 5)))
        assert sample.n_columns == 15
        assert sample.indices.shape == (15, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (5000, 5000)))

    def test_region_validation(self):
        with pytest.raises(ValueError):
            HyperrectRegion((0.0,), (1.0,), (2,))  # n must be >= 2
        with pytest.raises(ValueError):
            HyperrectRegion((0.0, 0.0), (1.0, 0.0), (2, 2))
        with pytest.raises(ValueError):
            HyperrectRegion((0.0, 0.0), (1.0, 1.0), (1, 2))

    @pytest.mark.parametrize("d", [(1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)])
    def test_non_finite_sides_rejected(self, d):
        with pytest.raises(ValueError, match="finite"):
            HyperrectRegion((0.0, 0.0), d, (2, 2))

    @pytest.mark.parametrize("count", [2.5, 4.0, "4"])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="counts must be integers"):
            HyperrectRegion((0.0, 0.0), (1.0, 1.0), (count, 3))

    def test_numpy_integer_counts_accepted(self):
        region = HyperrectRegion((0.0, 0.0), (1.0, 1.0), (np.int64(2), np.int32(3)))
        assert region.counts == (2, 3) and all(type(c) is int for c in region.counts)


class TestRectArbitrary:
    def test_zero_offsets_recover_grid(self):
        grid = rect_grid_sample(SQUARE_REGION)
        sample = rect_arbitrary_sample(SQUARE_REGION, offsets=np.zeros((2, 6)))
        assert np.array_equal(sample.directions, grid.directions)

    def test_worked_example_offsets(self):
        offsets = np.array(
            [
                [0.5, 0.75, 1.0, 1.0, 0.5, 0.0],
                [1.0 / 3.0, 2.0 / 3.0, 0.0, 1.0, 0.5, 0.0],
            ]
        )
        sample = rect_arbitrary_sample(SQUARE_REGION, offsets=offsets)
        expected = np.array([[2.0, 5, 8, 0, 6, 12], [2.0, 1, 3, 3, 4.5, 6]])
        assert np.allclose(sample.directions, expected, atol=1e-12)
        assert sample.tag == "rect-arbitrary"

    def test_seeded_columns_stay_in_their_cells(self):
        region = HyperrectRegion((0.0, 0.0), (1.0, 1.0), (8, 8))
        sample = rect_arbitrary_sample(region, seed=123)
        h = np.array(region.sublengths)
        for j in range(sample.n_columns):
            idx = sample.indices[j]
            col = sample.directions[:, j]
            assert np.all(col >= (idx - 1) * h - 1e-12)
            assert np.all(col <= idx * h + 1e-12)

    def test_grid_minus_sample_bounded_by_cell_sides(self):
        region = HyperrectRegion((0.0, 0.0), (2.0, 3.0), (4, 5))
        grid = rect_grid_sample(region)
        sample = rect_arbitrary_sample(region, seed=9)
        gap = grid.directions - sample.directions
        h = np.array(region.sublengths)
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= h[:, None] + 1e-12)

    def test_same_seed_same_sample(self):
        a = rect_arbitrary_sample(SQUARE_REGION, seed=4)
        b = rect_arbitrary_sample(SQUARE_REGION, seed=4)
        assert np.array_equal(a.directions, b.directions)

    def test_offset_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rect_arbitrary_sample(SQUARE_REGION, offsets=np.full((2, 6), 1.5))
        with pytest.raises(ValueError, match="shape"):
            rect_arbitrary_sample(SQUARE_REGION, offsets=np.zeros((2, 5)))

    def test_offsets_and_a_seed_together_are_rejected(self):
        with pytest.raises(ValueError, match="offsets or a seed, not both"):
            rect_arbitrary_sample(SQUARE_REGION, offsets=np.zeros((2, 6)), seed=3)

    def test_writing_the_callers_offsets_later_moves_no_point(self):
        offsets = np.full((2, 6), 0.5)
        sample = rect_arbitrary_sample(SQUARE_REGION, offsets=offsets)
        offsets[:] = 1.0
        want = rect_grid_sample(SQUARE_REGION).directions - 0.5 * np.array(SQUARE_REGION.sublengths)[:, None]
        assert np.array_equal(sample.directions, want)


class TestBallGrid:
    def test_worked_example_matrix(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 30.0, (3, 4)))
        expected = np.array(
            [
                [0, -10, 0, 10, 0, -20, 0, 20, 0, -30, 0, 30],
                [10, 0, -10, 0, 20, 0, -20, 0, 30, 0, -30, 0],
            ],
            dtype=float,
        )
        assert np.allclose(sample.directions, expected, atol=1e-9)
        assert sample.tag == "ball-grid"

    def test_outer_shell_has_norm_exactly_radius(self):
        region = BallRegion((0.0, 0.0, 0.0), 2.0, (4, 6, 4))
        sample = ball_grid_sample(region)
        norms = np.linalg.norm(sample.directions, axis=0)
        outer = sample.indices[:, 0] == 4
        assert np.allclose(norms[outer], 2.0, atol=1e-12)

    def test_norms_take_exactly_the_shell_values(self):
        region = BallRegion((0.0, 0.0), 1.0, (5, 8))
        sample = ball_grid_sample(region)
        norms = np.linalg.norm(sample.directions, axis=0)
        expected = sample.indices[:, 0] / 5.0
        assert np.allclose(norms, expected, atol=1e-13)

    def test_three_dimensional_norms_and_distinct_cells(self):
        region = BallRegion((0.0, 0.0, 0.0), 1.0, (4, 6, 4))
        sample = ball_grid_sample(region)
        norms = np.linalg.norm(sample.directions, axis=0)
        assert np.all(norms > 0.0)
        assert np.all(norms <= 1.0 + 1e-12)
        assert sample.n_columns == 4 * 6 * 4
        seen = {tuple(idx) for idx in sample.indices.tolist()}
        assert len(seen) == sample.n_columns

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            BallRegion((0.0, 0.0), 1.0, (2, 4))
        with pytest.raises(ValueError):
            BallRegion((0.0, 0.0), 0.0, (3, 3))

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        with pytest.raises(ValueError, match="finite"):
            BallRegion((0.0, 0.0), r, (3, 3))

    @pytest.mark.parametrize("count", [3.5, 4.0, "4"])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="counts must be integers"):
            BallRegion((0.0, 0.0), 1.0, (3, count))

    def test_numpy_integer_counts_accepted(self):
        region = BallRegion((0.0, 0.0), 1.0, (np.int64(3), np.int32(4)))
        assert region.counts == (3, 4) and all(type(c) is int for c in region.counts)


class TestGridJacobian:
    def test_two_dimensional_no_sine_factors(self):
        # at the outermost shell the value is exactly the radius
        region = BallRegion((0.0, 0.0), 1.0, (3, 3))
        assert grid_jacobian(region, (3, 1)) == pytest.approx(1.0, abs=1e-15)
        assert grid_jacobian(region, (2, 2)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_three_dimensional_unit_case(self):
        region = BallRegion((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        # y1 = N1 and the polar index at sin(pi/2) = 1
        assert grid_jacobian(region, (4, 1, 2)) == pytest.approx(1.0, abs=1e-15)

    def test_matches_symbolic_product(self):
        region = BallRegion((0.0, 0.0, 0.0, 0.0), 1.5, (5, 4, 3, 6))
        y = (3, 2, 2, 5)
        rho, n = sympy.Rational(3, 2) * sympy.Rational(y[0], 5), 4
        symbolic = rho ** (n - 1)
        symbolic *= sympy.sin(sympy.pi * sympy.Rational(y[2], 3)) ** (n - 2)
        symbolic *= sympy.sin(sympy.pi * sympy.Rational(y[3], 6)) ** (n - 3)
        assert grid_jacobian(region, y) == pytest.approx(float(symbolic), rel=1e-13)

    def test_index_validation(self):
        region = BallRegion((0.0, 0.0), 1.0, (3, 4))
        with pytest.raises(ValueError):
            grid_jacobian(region, (0, 1))
        with pytest.raises(ValueError):
            grid_jacobian(region, (1, 5))

    @pytest.mark.parametrize("y", [(1.5, 2.7, 3.9), (1.0, 2.0, 3.0), ("1", "2", "3")], ids=["fraction", "float", "string"])
    def test_non_integer_multi_index_rejected(self, y):
        # (1.5, 2.7, 3.9) was truncated to (1, 2, 3)
        with pytest.raises(ValueError, match="multi-index entries must be integers"):
            grid_jacobian(BallRegion((0.0, 0.0, 0.0), 1.0, (4, 4, 4)), y)

    def test_numpy_integer_multi_index_accepted(self):
        region = BallRegion((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        assert grid_jacobian(region, np.array([1, 2, 3])) == grid_jacobian(region, (1, 2, 3))


class TestWeightedGramStructure:
    """Diagonal commutation-style structure of the jacobian-weighted Gram.

    The literal per-column identity S J = K S (J the diagonal matrix of
    jacobian values, K = S J pinv(S)) does not hold: J rescales each
    column individually while K can only rescale rows. What is true, and
    what the dense-limit theory uses, is that K is diagonal and
    invertible on these grids; that is what we assert.
    """

    @pytest.mark.parametrize(
        "region",
        [
            BallRegion((0.0, 0.0), 1.0, (4, 8)),
            BallRegion((0.0, 0.0), 2.0, (5, 12)),
            BallRegion((0.0, 0.0, 0.0), 1.0, (4, 6, 5)),
        ],
    )
    def test_weighted_gram_commutator_is_diagonal(self, region):
        sample = ball_grid_sample(region)
        jac = np.array([grid_jacobian(region, idx) for idx in sample.indices])
        k = (sample.directions * jac) @ pseudoinverse(sample.directions)
        off = k - np.diag(np.diag(k))
        assert np.linalg.norm(off) <= 1e-9 * max(np.linalg.norm(k), 1.0)
        assert np.all(np.abs(np.diag(k)) > 1e-12)


class TestSampleRadius:
    def test_square_example(self):
        assert sample_radius(rect_grid_sample(SQUARE_REGION)) == pytest.approx(6.0 * math.sqrt(5.0), rel=1e-14)

    def test_ball_grid_is_radius(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 3.0, (4, 5)))
        assert sample_radius(sample) == pytest.approx(3.0, abs=1e-12)

    def test_unit_hypercube_corner(self):
        for n in (2, 3, 4):
            sample = rect_grid_sample(HyperrectRegion((0.0,) * n, (1.0,) * n, (2,) * n))
            assert sample_radius(sample) == pytest.approx(math.sqrt(n), rel=1e-14)


    @pytest.mark.parametrize(
        "sample",
        [
            rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 3.0), (64, 48))),
            rect_arbitrary_sample(HyperrectRegion((0.0,) * 3, (0.3, 1.0, 7.0), (9, 10, 11)), seed=2),
            ball_grid_sample(BallRegion((0.0, 0.0), 1.7, (33, 40))),
            ball_grid_sample(BallRegion((0.0,) * 4, 0.9, (5, 6, 7, 8))),
        ],
        ids=["rect", "rect-arbitrary-3d", "ball", "ball-4d"],
    )
    def test_cached_radius_is_bitwise_the_column_norm_maximum(self, sample):
        plain = np.array(sample.directions)
        assert sample_radius(sample) == sample_radius(sample.directions) == sample_radius(plain)
        assert sample_radius(sample) == float(np.max(np.linalg.norm(plain, axis=0)))
        assert sample_radius(np.asfortranarray(plain)) == sample_radius(sample)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_radius(np.zeros((2, 0)))


class TestSharedSpectrum:
    def test_gram_spectrum_is_cached(self):
        sample = rect_grid_sample(SQUARE_REGION)
        gram, eigvals = sample.gram_spectrum
        assert sample.gram_spectrum[0] is gram
        assert np.array_equal(gram, sample.directions @ sample.directions.T)
        assert np.array_equal(eigvals, np.linalg.eigvalsh(gram))

    def test_arrays_are_read_only(self):
        sample = rect_grid_sample(SQUARE_REGION)
        with pytest.raises(ValueError):
            sample.directions[0, 0] = 1.0
        with pytest.raises(ValueError):
            sample.indices[0, 0] = 2
        with pytest.raises(ValueError):
            sample.gram_spectrum[0][0, 0] = 0.0
        arbitrary = rect_arbitrary_sample(SQUARE_REGION, seed=0)
        with pytest.raises(ValueError):
            arbitrary.directions[:, 0] *= 2.0


class TestSingularRange:
    @pytest.mark.parametrize("d", [(12.0, 6.0), (1.0, 1e-8)], ids=["gram", "svd"])
    def test_matches_the_svd_of_s(self, d):
        sample = rect_grid_sample(HyperrectRegion((0.0, 0.0), d, (8, 8)))
        smin, smax = sample.singular_range
        assert "directions" not in vars(sample)  # the SVD route reads a transient array
        sv = np.linalg.svd(np.array(sample.directions), compute_uv=False)
        assert smin == pytest.approx(sv[-1], rel=1e-10)
        assert smax == pytest.approx(sv[0], rel=1e-12)
        assert sample.singular_range is sample.singular_range

    def test_fewer_columns_than_rows_has_sigma_min_zero(self):
        sample = SampleMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "wide", None)
        assert sample.singular_range == (0.0, pytest.approx(math.sqrt(3.0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="sample matrix is empty"):
            SampleMatrix(np.zeros((2, 0)), "empty", None).singular_range


class TestCsv:
    def test_writes_the_text_it_returns(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 30.0, (3, 4)))
        buf = io.StringIO()
        text = sample.to_csv(out=buf)
        assert buf.getvalue() == text == sample.to_csv()

    def test_round_trip_and_header(self):
        sample = rect_grid_sample(SQUARE_REGION)
        text = sample.to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,N,tag"
        assert lines[1] == "2,6,rect-grid"
        assert lines[2] == "col,i1,i2,s1,s2"
        assert len(lines) == 3 + 6
        first = lines[3].split(",")
        assert first[:3] == ["1", "1", "1"]
        assert [float(v) for v in first[3:]] == [4.0, 3.0]

    def test_stable_output(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 30.0, (3, 4)))
        assert sample.to_csv() == sample.to_csv()
        assert "\r" not in sample.to_csv()

    def test_sample_without_cell_indices_is_rejected(self):
        with pytest.raises(ValueError, match="no cell indices"):
            SampleMatrix(np.eye(2), "x", None).to_csv()

    # a (2, 2) array wrote a header of 3 columns and 2 rows; float indices printed as 1.5
    @pytest.mark.parametrize(
        "indices",
        [np.ones((2, 2), dtype=np.int64), np.ones((2, 3), dtype=np.int64), np.full((3, 2), 1.5), [[1, 1]] * 3],
        ids=["too-few-rows", "transposed", "float", "list"],
    )
    def test_malformed_cell_indices_are_rejected(self, indices):
        with pytest.raises(ValueError, match=r"indices must be an \(N, n\) = \(3, 2\) integer array"):
            SampleMatrix(np.ones((2, 3)), "x", indices)
        lines = SampleMatrix(np.ones((2, 3)), "x", np.ones((3, 2), dtype=np.int64)).to_csv().splitlines()
        assert lines[1] == "2,3,x" and len(lines) == 3 + 3
