"""Simplex-gradient estimation over structured sample sets.

Builds direction matrices on subdivided boxes and balls, evaluates the
least-squares simplex gradient, provides the closed-form limits of the
estimate as the grids densify, and the matching finite-sample and
N-independent error bounds, plus a small experiment harness.
"""

from .bounds import (
    BoundReport,
    RankDeficiencyError,
    centered_bound,
    classical_bound,
    limit_bound_ball,
    limit_bound_box,
)
from .closed_forms import (
    DenseLimitMatrix,
    GridGram,
    ball_gamma_ratio,
    ball_volume,
    dense_limit_matrix,
    grid_gram,
    grid_gram_inverse,
)
from .experiments import ExperimentConfig, ConvergenceResult, ReproduceReport, convergence, reproduce
from .fields import FieldEntry, check_gradient_consistency, field_ids, get_field, make_affine
from .gsg import EvaluationError, GradientEstimate, ScalarField, function_increments, simplex_gradient
from .limits import (
    CapabilityError,
    LimitGradientResult,
    ball_moment_vector,
    box_moment_vector,
    limit_gradient_ball,
    limit_gradient_box,
    taylor_diagnostics,
)
from .linalg import gamma_half_integer, pseudoinverse, spectral_norm
from .quadrature import (
    QuadratureSpec,
    abs_monomial_ball_integral,
    ball_nodes,
    box_nodes,
    integrate_ball,
    integrate_box,
    monomial_ball_integral,
)
from .regions import (
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

__version__ = "0.1.0"

__all__ = [
    "BallRegion",
    "BoundReport",
    "BudgetExceededError",
    "CapabilityError",
    "ConvergenceResult",
    "DenseLimitMatrix",
    "EvaluationError",
    "ExperimentConfig",
    "FieldEntry",
    "GradientEstimate",
    "GridGram",
    "HyperrectRegion",
    "LimitGradientResult",
    "QuadratureSpec",
    "RankDeficiencyError",
    "ReproduceReport",
    "SampleMatrix",
    "ScalarField",
    "abs_monomial_ball_integral",
    "ball_gamma_ratio",
    "ball_grid_sample",
    "ball_moment_vector",
    "ball_nodes",
    "ball_volume",
    "box_moment_vector",
    "box_nodes",
    "centered_bound",
    "check_gradient_consistency",
    "classical_bound",
    "convergence",
    "dense_limit_matrix",
    "field_ids",
    "function_increments",
    "gamma_half_integer",
    "get_field",
    "grid_gram",
    "grid_gram_inverse",
    "grid_jacobian",
    "integrate_ball",
    "integrate_box",
    "limit_bound_ball",
    "limit_bound_box",
    "limit_gradient_ball",
    "limit_gradient_box",
    "make_affine",
    "monomial_ball_integral",
    "pseudoinverse",
    "rect_arbitrary_sample",
    "rect_grid_sample",
    "reproduce",
    "sample_radius",
    "simplex_gradient",
    "spectral_norm",
    "taylor_diagnostics",
]
