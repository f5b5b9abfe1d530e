"""Experiment harness: worked-example reproduction and convergence tables.

``reproduce`` recomputes a small set of known-answer cases and reports
computed-versus-expected at fixed tolerances. ``convergence`` runs a
schedule of sample densities for one field on one region and emits a
versioned CSV with, per row, the finite-sample gradient error, the
classical bound, the mirrored-structure bound where ``antipodal_half`` finds
a half (2-d ball grids with an even azimuthal count), the N-independent limit bound,
and the limit-estimate error. Rows are deterministic for a fixed seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bounds import centered_bound, classical_bound, limit_bound_ball, limit_bound_box
from .fields import get_field
from .gsg import simplex_gradient
from .limits import limit_gradient_ball, limit_gradient_box
from .quadrature import QuadratureSpec
from .regions import (
    BallRegion,
    HyperrectRegion,
    SampleMatrix,
    _check_budget,
    _finite,
    _integer,
    _integers,
    _lengths,
    antipodal_half,
    ball_grid_sample,
    rect_arbitrary_sample,
    rect_grid_sample,
)

__all__ = [
    "Check",
    "ReproduceReport",
    "ExperimentConfig",
    "ConvergenceRow",
    "ConvergenceResult",
    "REPRODUCE_IDS",
    "reproduce",
    "convergence",
    "antipodal_half",
]

CSV_SCHEMA = "convergence-v1"

# slack for comparisons between a floating-point error and a zero bound
DOMINATION_SLACK = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    computed: np.ndarray
    expected: np.ndarray
    tol: float
    deviation: float
    passed: bool


@dataclass(frozen=True)
class ReproduceReport:
    example_id: str
    checks: list[Check]
    artifacts: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{self.example_id} :: {c.name}: computed={np.array2string(np.atleast_1d(c.computed), precision=10)} "
                f"expected={np.array2string(np.atleast_1d(c.expected), precision=10)} "
                f"max_dev={c.deviation:.3e} tol={c.tol:.1e} {status}"
            )
        return out


def _check(name: str, computed, expected, tol: float) -> Check:
    computed = np.asarray(computed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    dev = float(np.max(np.abs(computed - expected)))
    return Check(name, computed, expected, tol, dev, dev <= tol)


def _matrix_report(example_id: str, sample: SampleMatrix, expected, tol: float) -> ReproduceReport:
    """Check a worked example's direction matrix and ship the sample as ``<example_id>.csv``."""
    return ReproduceReport(
        example_id,
        [_check("direction matrix", sample.directions, expected, tol)],
        artifacts={f"{example_id}.csv": sample.to_csv()},
    )


def _reproduce_rect_grid_matrix() -> ReproduceReport:
    region = HyperrectRegion(x0=(0.0, 0.0), d=(12.0, 6.0), counts=(3, 2))
    expected = [[4, 8, 12, 4, 8, 12], [3, 3, 3, 6, 6, 6]]
    return _matrix_report("rect-grid-matrix", rect_grid_sample(region), expected, 1e-12)


def _reproduce_rect_arbitrary_matrix() -> ReproduceReport:
    region = HyperrectRegion(x0=(0.0, 0.0), d=(12.0, 6.0), counts=(3, 2))
    offsets = np.array(
        [
            [0.5, 0.75, 1.0, 1.0, 0.5, 0.0],
            [1.0 / 3.0, 2.0 / 3.0, 0.0, 1.0, 0.5, 0.0],
        ]
    )
    sample = rect_arbitrary_sample(region, offsets=offsets)
    expected = [[2, 5, 8, 0, 6, 12], [2, 1, 3, 3, 4.5, 6]]
    return _matrix_report("rect-arbitrary-matrix", sample, expected, 1e-12)


def _reproduce_ball_grid_matrix() -> ReproduceReport:
    region = BallRegion(x0=(0.0, 0.0), r=30.0, counts=(3, 4))
    expected = [
        [0, -10, 0, 10, 0, -20, 0, 20, 0, -30, 0, 30],
        [10, 0, -10, 0, 20, 0, -20, 0, 30, 0, -30, 0],
    ]
    return _matrix_report("ball-grid-matrix", ball_grid_sample(region), expected, 1e-9)


def _reproduce_rect_limit_quadratic() -> ReproduceReport:
    entry = get_field("quad2")
    x0 = np.array(entry.anchor)
    result = limit_gradient_box(entry.field, x0, (1.0, 1.0), QuadratureSpec(64))
    expected = np.array([47.0 / 7.0, 19.0 / 7.0])
    err = float(np.linalg.norm(result.estimate - entry.field.gradient(x0)))
    return ReproduceReport(
        "rect-limit-quadratic",
        [
            _check("limit estimate", result.estimate, expected, 1e-6),
            _check("limit error", err, 5.0 * math.sqrt(2.0) / 7.0, 1e-6),
        ],
    )


def _reproduce_ball_limit_quadratic() -> ReproduceReport:
    entry = get_field("quad2")
    x0 = np.array(entry.anchor)
    result = limit_gradient_ball(entry.field, x0, 1.0, QuadratureSpec(64))
    return ReproduceReport(
        "ball-limit-quadratic",
        [_check("limit estimate", result.estimate, np.array([6.0, 2.0]), 1e-8)],
    )


_REPRODUCERS = {
    "rect-grid-matrix": _reproduce_rect_grid_matrix,
    "rect-arbitrary-matrix": _reproduce_rect_arbitrary_matrix,
    "ball-grid-matrix": _reproduce_ball_grid_matrix,
    "rect-limit-quadratic": _reproduce_rect_limit_quadratic,
    "ball-limit-quadratic": _reproduce_ball_limit_quadratic,
}

REPRODUCE_IDS = tuple(sorted(_REPRODUCERS))


def reproduce(example_id: str) -> ReproduceReport:
    """Recompute one known-answer example and compare against its expected value."""
    try:
        maker = _REPRODUCERS[example_id]
    except KeyError:
        raise KeyError(f"unknown example id {example_id!r}; known ids: {list(REPRODUCE_IDS)}") from None
    return maker()


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence run: a field, a region, and a schedule of densities.

    ``x0=None`` means the field's anchor; a rect run's ``sides=None`` means
    the unit box in the field's dimension and a ball run's ``radius=None``
    the unit ball. Each is resolved, as floats, on construction, and a run
    given the other region kind's extent (a ball run's ``sides``, a rect
    run's ``radius``) raises ``ValueError``. Every schedule row's length
    and integer counts, its column count, ``nodes`` (an integer >= 2) and
    the limit quadrature's ``nodes ** dim``, finite, positive sides and
    radius, and a nonnegative integer ``seed`` are checked on construction
    too (``BudgetExceededError`` above ``DEFAULT_COLUMN_BUDGET``, else
    ``ValueError``), before the limit quadrature or any row runs. The
    schedule, any iterable of rows, is kept as the tuple of int tuples its
    checks build, so a later change to the caller's rows changes no run;
    ``nodes`` and ``seed`` are kept as ints.
    """

    field_id: str
    region: str  # "rect" | "ball"
    schedule: tuple[tuple[int, ...], ...]
    x0: tuple[float, ...] | None = None
    sides: tuple[float, ...] | None = None
    radius: float | None = None
    sample: str = "grid"  # rect only: "grid" | "arbitrary"
    nodes: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.region not in ("rect", "ball"):
            raise ValueError("region must be 'rect' or 'ball'")
        if self.sample not in ("grid", "arbitrary"):
            raise ValueError("sample must be 'grid' or 'arbitrary'")
        if self.region == "ball" and self.sample != "grid":
            raise ValueError("ball runs support only grid sampling")
        entry = get_field(self.field_id)  # raises for unknown ids
        dim = entry.field.dim
        # rejected here too, before the limit quadrature runs on them
        if self.region == "rect":
            if self.radius is not None:
                raise ValueError("a rect run takes sides, not a radius")
            object.__setattr__(self, "sides", _lengths((1.0,) * dim if self.sides is None else self.sides))
            if len(self.sides) != dim:
                raise ValueError(f"sides must have {dim} entries for field {self.field_id}, got {len(self.sides)}")
        else:
            if self.sides is not None:
                raise ValueError("a ball run takes a radius, not sides")
            object.__setattr__(self, "radius", _lengths((1.0 if self.radius is None else self.radius,), "radius")[0])
        object.__setattr__(self, "x0", _finite(entry.anchor if self.x0 is None else self.x0, "x0"))
        if len(self.x0) != dim:
            raise ValueError(f"x0 must have {dim} entries for field {self.field_id}, got {len(self.x0)}")
        # checked here, before the limit quadrature and any earlier row run
        least = (HyperrectRegion if self.region == "rect" else BallRegion).least
        schedule = []
        for counts in self.schedule:
            if len(counts) != dim:
                raise ValueError(f"schedule rows must have {dim} counts for field {self.field_id}, got {tuple(counts)}")
            schedule.append(_integers(counts, f"{self.region} subdivision counts", least))
            _check_budget(math.prod(schedule[-1]))
        if not schedule:
            raise ValueError("schedule must be nonempty")
        object.__setattr__(self, "schedule", tuple(schedule))
        # rejects a non-integer node count or one below 2
        object.__setattr__(self, "nodes", QuadratureSpec(self.nodes).nodes_per_axis)
        seed = _integer(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        object.__setattr__(self, "seed", seed)
        _check_budget(self.nodes**dim, "quadrature nodes")


@dataclass(frozen=True)
class ConvergenceRow:
    index: int
    counts: tuple[int, ...]
    n_samples: int
    radius: float
    gsg_error: float
    classical_bound: float
    centered_bound: float | None
    limit_bound: float
    limit_error: float


@dataclass(frozen=True)
class ConvergenceResult:
    config: ExperimentConfig
    rows: list[ConvergenceRow]

    def dominated(self) -> bool:
        """True when every row's error is at most each bound + ``DOMINATION_SLACK``; a NaN error or bound fails."""
        for row in self.rows:
            if not row.gsg_error <= row.classical_bound + DOMINATION_SLACK:
                return False
            if row.centered_bound is not None and not row.gsg_error <= row.centered_bound + DOMINATION_SLACK:
                return False
            if not row.limit_error <= row.limit_bound + DOMINATION_SLACK:
                return False
        return True

    def to_csv(self) -> str:
        cfg = self.config
        buf = io.StringIO()
        buf.write(f"schema,{CSV_SCHEMA}\n")
        buf.write(f"field,{cfg.field_id}\n")
        buf.write(f"region,{cfg.region}\n")
        buf.write("x0," + ";".join(repr(float(v)) for v in cfg.x0) + "\n")
        if cfg.region == "rect":
            buf.write("sides," + ";".join(repr(float(v)) for v in cfg.sides) + "\n")
        else:
            buf.write(f"radius,{repr(float(cfg.radius))}\n")
        buf.write(f"sample,{cfg.sample}\n")
        buf.write(f"nodes,{cfg.nodes}\n")
        buf.write(f"seed,{cfg.seed}\n")
        buf.write("row,counts,n_samples,radius,gsg_error,classical_bound,centered_bound,limit_bound,limit_error\n")
        for row in self.rows:
            counts = "x".join(str(c) for c in row.counts)
            centered = "" if row.centered_bound is None else repr(float(row.centered_bound))
            buf.write(
                f"{row.index},{counts},{row.n_samples},{repr(float(row.radius))},"
                f"{repr(float(row.gsg_error))},{repr(float(row.classical_bound))},"
                f"{centered},{repr(float(row.limit_bound))},{repr(float(row.limit_error))}\n"
            )
        return buf.getvalue()


def convergence(config: ExperimentConfig) -> ConvergenceResult:
    """Run the schedule and collect one row per sample density."""
    entry = get_field(config.field_id)
    x0 = np.array(config.x0)
    field = entry.field
    spec = QuadratureSpec(config.nodes)
    true_grad = field.gradient(x0)

    if config.region == "rect":
        d = np.asarray(config.sides, dtype=float)
        limit = limit_gradient_box(field, x0, d, spec)
        grid_radius = float(np.linalg.norm(d))
        grad_lip = entry.grad_lipschitz_on(x0, grid_radius)
        limit_bound = limit_bound_box(d, grad_lip)
    else:
        limit = limit_gradient_ball(field, x0, config.radius, spec)
        grad_lip = entry.grad_lipschitz_on(x0, config.radius)
        hess_lip = entry.hess_lipschitz_on(x0, config.radius)
        limit_bound = limit_bound_ball(field.dim, config.radius, hess_lip)
    limit_error = float(np.linalg.norm(limit.estimate - true_grad))

    rows: list[ConvergenceRow] = []
    for i, counts in enumerate(config.schedule):
        if config.region == "rect":
            region = HyperrectRegion(x0=tuple(x0), d=tuple(config.sides), counts=counts)
            if config.sample == "grid":
                sample = rect_grid_sample(region)
            else:
                # one deterministic offset stream per schedule row
                sample = rect_arbitrary_sample(region, seed=[config.seed, i])
        else:
            region = BallRegion(x0=tuple(x0), r=config.radius, counts=counts)
            sample = ball_grid_sample(region)
        # the estimate walks the sample once; the bounds and the half then read its cached sums
        # (taken first, a bound would walk S on its own and the estimate would walk it again)
        est = simplex_gradient(field, x0, sample)
        classical = classical_bound(sample, grad_lip)
        half = antipodal_half(sample)  # None for every rect sample, so hess_lip is read only on ball runs
        centered = None if half is None else centered_bound(half, hess_lip).value
        rows.append(
            ConvergenceRow(
                index=i,
                counts=tuple(counts),
                n_samples=sample.n_columns,
                radius=est.radius,
                gsg_error=float(est.error),
                classical_bound=classical.value,
                centered_bound=centered,
                limit_bound=limit_bound.value,
                limit_error=limit_error,
            )
        )
    return ConvergenceResult(config=config, rows=rows)
