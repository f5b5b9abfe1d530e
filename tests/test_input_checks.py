"""Entry points reject bad inputs with ``ValueError`` through the shared checks in ``regions``.

Without a check, these calls return a value (nan, a truncated count, a
negative integral) or fail later with a ``TypeError``.
"""

from __future__ import annotations

import math

import pytest

from simplexgrad.bounds import limit_bound_ball, limit_bound_box
from simplexgrad.closed_forms import ball_gamma_ratio, ball_volume, dense_limit_matrix, grid_gram, grid_gram_inverse
from simplexgrad.gsg import ScalarField
from simplexgrad.linalg import gamma_half_integer
from simplexgrad.quadrature import abs_monomial_ball_integral, ball_nodes, monomial_ball_integral

nan, inf = math.nan, math.inf


def _ones(x):
    return x[:, 0] * 0.0 + 1.0


CASES = {
    "limit_bound_box-nan-side": (lambda: limit_bound_box([1.0, nan], 1.0), "side lengths must be finite"),
    "limit_bound_box-inf-side": (lambda: limit_bound_box([1.0, inf], 1.0), "side lengths must be finite"),
    "dense_limit_matrix-nan-side": (lambda: dense_limit_matrix([1.0, nan]), "side lengths must be finite"),
    "dense_limit_matrix-inf-side": (lambda: dense_limit_matrix([inf, 1.0]), "side lengths must be finite"),
    "grid_gram-fractional-count": (lambda: grid_gram([2.5, 3], [0.5, 0.5]), "counts must be integers"),
    "grid_gram-nan-cell": (lambda: grid_gram([2, 3], [nan, 0.5]), "cell side lengths must be finite"),
    "grid_gram_inverse-fractional-count": (lambda: grid_gram_inverse([2.5, 3], [0.5, 0.5]), "counts must be integers"),
    "grid_gram_inverse-nan-cell": (lambda: grid_gram_inverse([2, 3], [0.5, nan]), "cell side lengths must be finite"),
    "gamma_half_integer-fraction": (lambda: gamma_half_integer(2.5), "two_k must be an integer"),
    "ball_volume-fractional-dim": (lambda: ball_volume(2.5, 1.0), "dimension must be an integer"),
    "ball_volume-nan-radius": (lambda: ball_volume(2, nan), "radius must be finite"),
    "ball_gamma_ratio-fractional-dim": (lambda: ball_gamma_ratio(2.5), "dimension must be an integer"),
    "limit_bound_ball-fractional-dim": (lambda: limit_bound_ball(2.5, 1.0, 1.0), "dimension must be an integer"),
    "monomial-negative-radius": (lambda: monomial_ball_integral((2, 0), 2, -1.0), "radius must be positive"),
    "monomial-nan-radius": (lambda: monomial_ball_integral((2, 0), 2, nan), "radius must be finite"),
    "abs-monomial-negative-radius": (lambda: abs_monomial_ball_integral((1, 0), 2, -1.0), "radius must be positive"),
    "abs-monomial-nan-radius": (lambda: abs_monomial_ball_integral((1, 0), 2, nan), "radius must be finite"),
    "ScalarField-fractional-dim": (lambda: ScalarField(2.5, _ones), "dimension must be an integer"),
    "ScalarField-zero-dim": (lambda: ScalarField(0, _ones), "dimension must be at least 1"),
    "ball_nodes-fractional-dim": (lambda: ball_nodes(2.5, 1.0), "dimension must be an integer"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_rejected_with_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
