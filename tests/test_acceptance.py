"""Acceptance suite: one check per stated criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Checks
are self-contained and print their measured values so a failure is
diagnosable from the output alone.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from simplexgrad.bounds import centered_bound, classical_bound, limit_bound_ball, limit_bound_box
from simplexgrad.closed_forms import dense_limit_matrix, grid_gram, grid_gram_inverse
from simplexgrad.experiments import ExperimentConfig, antipodal_half, convergence
from simplexgrad.fields import get_field
from simplexgrad.gsg import function_increments, simplex_gradient
from simplexgrad.limits import box_moment_vector, limit_gradient_ball, limit_gradient_box
from simplexgrad.quadrature import QuadratureSpec, ball_nodes, monomial_ball_integral
from simplexgrad.regions import (
    BallRegion,
    HyperrectRegion,
    ball_grid_sample,
    rect_arbitrary_sample,
    rect_grid_sample,
    sample_radius,
)

SPEC64 = QuadratureSpec(64)

# absolute slack for error-vs-bound comparisons where the bound is exactly
# zero (affine fields): floating-point estimates cannot beat 0 exactly
DOMINATION_SLACK = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_worked_example_rectangle():
    entry = get_field("quad2")
    start = time.perf_counter()
    res = limit_gradient_box(entry.field, entry.anchor, (1.0, 1.0), SPEC64)
    elapsed = time.perf_counter() - start
    expected = np.array([47.0 / 7.0, 19.0 / 7.0])
    dev = float(np.max(np.abs(res.estimate - expected)))
    err = float(np.linalg.norm(res.estimate - entry.field.gradient(entry.anchor)))
    err_dev = abs(err - 5.0 * math.sqrt(2.0) / 7.0)
    ok = dev <= 1e-6 and err_dev <= 1e-6 and elapsed < 1.0
    report(
        "worked example, rectangle",
        ok,
        f"estimate dev={dev:.2e}, error dev={err_dev:.2e}, runtime={elapsed:.3f}s",
    )


def test_worked_example_ball():
    entry = get_field("quad2")
    start = time.perf_counter()
    res = limit_gradient_ball(entry.field, entry.anchor, 1.0, SPEC64)
    elapsed = time.perf_counter() - start
    dev = float(np.max(np.abs(res.estimate - np.array([6.0, 2.0]))))
    ok = dev <= 1e-8 and elapsed < 1.0
    report("worked example, ball", ok, f"estimate dev={dev:.2e}, runtime={elapsed:.3f}s")


def _gram_sweep():
    rng = np.random.default_rng(20240815)
    for n in (2, 3, 4):
        for counts in itertools.product((2, 3, 5, 8), repeat=n):
            for _ in range(20):
                d = rng.uniform(0.2, 3.0, size=n)
                yield n, counts, d


def test_gram_identity_sweep():
    start = time.perf_counter()
    worst = 0.0
    for n, counts, d in _gram_sweep():
        sample = rect_grid_sample(HyperrectRegion((0.0,) * n, tuple(d), counts))
        closed = grid_gram(counts, d / np.asarray(counts))
        brute = sample.directions @ sample.directions.T
        worst = max(worst, np.linalg.norm(brute - closed) / np.linalg.norm(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report("closed-form Gram identity", ok, f"worst rel dev={worst:.2e}, runtime={elapsed:.1f}s")


def test_gram_inverse_sweep():
    worst = 0.0
    for n, counts, d in _gram_sweep():
        h = d / np.asarray(counts)
        product = grid_gram_inverse(counts, h) @ grid_gram(counts, h).T
        worst = max(worst, float(np.max(np.abs(product - np.eye(n)))))
    ok = worst <= 1e-9
    report("inverse closed form", ok, f"worst dev from identity={worst:.2e}")


def test_limit_matrix_convergence():
    cases = [((1.0, 1.0),), ((2.0, 1.0),), ((1.0, 1.0, 1.0),), ((2.0, 1.0, 3.0),)]
    ok = True
    details = []
    for (d,) in cases:
        n = len(d)
        target = dense_limit_matrix(d)
        errors = []
        for k in range(3, 11):
            counts = (2**k,) * n
            total = float(np.prod(counts))
            h = np.asarray(d) / np.asarray(counts)
            errors.append(np.linalg.norm(total * grid_gram_inverse(counts, h) - target))
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        final_ok = errors[-1] <= 1e-2 * np.linalg.norm(target)
        ok = ok and decreasing and final_ok
        details.append(f"d={d}: final={errors[-1]:.2e} decreasing={decreasing}")
    report("limit matrix convergence", ok, "; ".join(details))


def test_normalized_limit_matrix_norm():
    ok = True
    worst_norm = 0.0
    worst_eig = 0.0
    for n in range(2, 11):
        f = dense_limit_matrix((1.0,) * n)
        worst_norm = max(worst_norm, abs(np.linalg.norm(f, 2) - 12.0))
        eigs = np.sort(np.linalg.eigvalsh(f.T @ f))
        expected = np.concatenate([[144.0 / (3 * n + 1) ** 2], np.full(n - 1, 144.0)])
        worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expected))))
    ok = worst_norm <= 1e-9 and worst_eig <= 1e-8
    report("normalized limit matrix norm", ok, f"norm dev={worst_norm:.2e}, eigenvalue dev={worst_eig:.2e}")


def _monomial_sweep(pts: np.ndarray, weights: np.ndarray, max_total: int):
    """Quadrature of every monomial with total degree <= max_total.

    Shares partial products along the lexicographic enumeration so each
    exponent step costs one array multiply.
    """
    n = pts.shape[1]
    out = {}

    def rec(axis: int, running: np.ndarray, alpha: tuple[int, ...]) -> None:
        if axis == n:
            out[alpha] = float(running.sum())
            return
        current = running
        for e in range(max_total - sum(alpha) + 1):
            if e > 0:
                current = current * pts[:, axis]
            rec(axis + 1, current, alpha + (e,))

    rec(0, weights, ())
    return out


def test_ball_monomial_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for r in (1.0, 2.0):
            pts, w = ball_nodes(n, r, QuadratureSpec(32))
            values = _monomial_sweep(pts, w, 6)
            for alpha, quad in values.items():
                exact = monomial_ball_integral(alpha, n, r)
                if exact == 0.0:
                    dev = abs(quad) / r ** (sum(alpha) + n)
                else:
                    dev = abs(quad - exact) / abs(exact)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    report("ball monomial oracle", ok, f"worst rel dev={worst:.2e}, runtime={elapsed:.1f}s")


def test_riemann_sum_limit():
    # tolerance is relative to |T|: the stated absolute 5e-3 is unattainable
    # for far-corner grids at k = 9 (measured 1.4e-2); see decisions ledger
    ok = True
    details = []
    for fid in ("quad2", "cubic2"):
        entry = get_field(fid)
        x0 = np.asarray(entry.anchor)
        t = box_moment_vector(entry.field, x0, (1.0, 1.0), SPEC64)
        t_norm = float(np.linalg.norm(t))
        for kind in ("grid", "arbitrary"):
            errors = []
            for k in range(3, 10):
                region = HyperrectRegion(tuple(x0), (1.0, 1.0), (2**k, 2**k))
                if kind == "grid":
                    sample = rect_grid_sample(region)
                else:
                    sample = rect_arbitrary_sample(region, seed=[0, k])
                df = function_increments(entry.field, x0, sample)
                approx = sample.directions @ df / sample.n_columns
                errors.append(float(np.linalg.norm(approx - t)))
            decreasing = all(b < a for a, b in zip(errors, errors[1:]))
            final_rel = errors[-1] / t_norm
            ok = ok and decreasing and final_rel <= 5e-3
            details.append(f"{fid}/{kind}: final rel={final_rel:.2e} decreasing={decreasing}")
    report("Riemann-sum limit", ok, "; ".join(details))


def test_finite_sample_convergence_to_limit_rect():
    entry = get_field("cubic2")
    x0 = np.asarray(entry.anchor)
    limit = limit_gradient_box(entry.field, x0, (1.0, 1.0), SPEC64).estimate
    errors = []
    for k in range(3, 10):
        sample = rect_grid_sample(HyperrectRegion(tuple(x0), (1.0, 1.0), (2**k, 2**k)))
        est = simplex_gradient(entry.field, x0, sample)
        errors.append(float(np.linalg.norm(est.estimate - limit)))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    report(
        "finite-N convergence to limit (rect)",
        decreasing,
        "errors=" + ",".join(f"{v:.2e}" for v in errors),
    )


def test_finite_sample_convergence_to_limit_ball():
    # Known-red: the polar-grid estimates accumulate at a point a fixed
    # distance ~0.07 from the closed-form ball limit, so this distance
    # grows over the stated range instead of shrinking. Kept as specified;
    # analysis lives in the decisions ledger.
    entry = get_field("cubic2")
    x0 = np.asarray(entry.anchor)
    limit = limit_gradient_ball(entry.field, x0, 1.0, SPEC64).estimate
    errors = []
    for k in range(3, 10):
        sample = ball_grid_sample(BallRegion(tuple(x0), 1.0, (2**k, 2**k)))
        est = simplex_gradient(entry.field, x0, sample)
        errors.append(float(np.linalg.norm(est.estimate - limit)))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    report(
        "finite-N convergence to limit (ball)",
        decreasing,
        "errors=" + ",".join(f"{v:.2e}" for v in errors),
    )


def _domination_suite():
    """Seeded runs: (field entry, x0, sample, kind in {rect, ball})."""
    for fid in ("quad2", "cubic2", "affine2"):
        entry = get_field(fid)
        x0 = tuple(np.asarray(entry.anchor, dtype=float))
        for k in (2, 3, 4, 5):
            region = HyperrectRegion(x0, (1.0, 1.0), (2**k, 2**k))
            yield entry, x0, rect_grid_sample(region), "rect"
            yield entry, x0, rect_arbitrary_sample(region, seed=[7, k]), "rect"
        for k in (2, 3, 4):
            yield entry, x0, ball_grid_sample(BallRegion(x0, 1.0, (2**k, 2**k))), "ball"
    entry = get_field("affine3")
    x0 = (0.0, 0.0, 0.0)
    for counts in ((3, 3, 3), (5, 5, 5)):
        yield entry, x0, rect_grid_sample(HyperrectRegion(x0, (1.0, 1.0, 1.0), counts)), "rect"
    yield entry, x0, ball_grid_sample(BallRegion(x0, 1.0, (4, 4, 4))), "ball"


def test_bound_domination():
    violations = []
    runs = centered_runs = 0
    for entry, x0, sample, kind in _domination_suite():
        runs += 1
        est = simplex_gradient(entry.field, x0, sample)
        radius = sample_radius(sample)
        lip_grad = entry.grad_lipschitz_on(x0, radius)
        classical = classical_bound(sample, lip_grad)
        if est.error > classical.value + DOMINATION_SLACK:
            violations.append(f"classical {entry.id}/{kind} N={sample.n_columns}")
        half = antipodal_half(sample)  # the one test of whether a sample mirrors
        if half is not None:
            centered_runs += 1
            lip_hess = entry.hess_lipschitz_on(x0, radius)
            cb = centered_bound(half, lip_hess)
            if est.error > cb.value + DOMINATION_SLACK:
                violations.append(f"centered {entry.id} N={sample.n_columns}")
    for fid in ("quad2", "cubic2", "affine2"):
        entry = get_field(fid)
        x0 = np.asarray(entry.anchor)
        d = np.array([1.0, 1.0])
        lim_rect = limit_gradient_box(entry.field, x0, d, SPEC64)
        err_rect = float(np.linalg.norm(lim_rect.estimate - entry.field.gradient(x0)))
        bound_rect = limit_bound_box(d, entry.grad_lipschitz_on(x0, float(np.linalg.norm(d))))
        if err_rect > bound_rect.value + DOMINATION_SLACK:
            violations.append(f"limit-rect {fid}")
        lim_ball = limit_gradient_ball(entry.field, x0, 1.0, SPEC64)
        err_ball = float(np.linalg.norm(lim_ball.estimate - entry.field.gradient(x0)))
        bound_ball = limit_bound_ball(2, 1.0, entry.hess_lipschitz_on(x0, 1.0))
        if err_ball > bound_ball.value + DOMINATION_SLACK:
            violations.append(f"limit-ball {fid}")
    # three fields times the 4^2, 8^2 and 16^2 ball grids; the only even-azimuth 2-d balls in the suite
    assert centered_runs == 9, f"centered bound checked on {centered_runs} samples, expected 9"
    report(
        "bound domination",
        not violations,
        f"{runs} finite-sample runs, violations={violations or 'none'}",
    )


def test_exactness_properties():
    problems = []
    for fid in ("affine2", "affine3"):
        entry = get_field(fid)
        x0 = tuple(np.asarray(entry.anchor, dtype=float))
        n = entry.field.dim
        samples = [
            rect_grid_sample(HyperrectRegion(x0, (1.0,) * n, (3,) * n)),
            rect_arbitrary_sample(HyperrectRegion(x0, (1.0,) * n, (4,) * n), seed=[1, n]),
            ball_grid_sample(BallRegion(x0, 1.0, (4,) * n)),
        ]
        for sample in samples:
            est = simplex_gradient(entry.field, x0, sample)
            if est.error > 1e-10:
                problems.append(f"gsg {fid}/{sample.tag} err={est.error:.1e}")
        lim = limit_gradient_box(entry.field, x0, (1.0,) * n, SPEC64)
        err = float(np.linalg.norm(lim.estimate - entry.field.gradient(x0)))
        if err > 1e-8:
            problems.append(f"rect limit {fid} err={err:.1e}")
    quad = get_field("quad2")
    lim = limit_gradient_ball(quad.field, quad.anchor, 1.0, SPEC64)
    err = float(np.linalg.norm(lim.estimate - quad.field.gradient(quad.anchor)))
    if err > 1e-8:
        problems.append(f"ball limit quad2 err={err:.1e}")
    report("exactness properties", not problems, f"problems={problems or 'none'}")


def test_figure_reproduction():
    start = time.perf_counter()
    rect_cfg = ExperimentConfig(
        field_id="cubic2",
        region="rect",
        schedule=tuple((2**k, 2**k) for k in range(2, 11)),
        nodes=64,
        seed=0,
    )
    ball_cfg = ExperimentConfig(
        field_id="cubic2",
        region="ball",
        schedule=tuple((2**k, 2**k) for k in range(2, 8)),
        nodes=64,
        seed=0,
    )
    problems = []
    for cfg in (rect_cfg, ball_cfg):
        first = convergence(cfg)
        second = convergence(cfg)
        if first.to_csv() != second.to_csv():
            problems.append(f"{cfg.region}: not deterministic")
        if len({row.limit_bound for row in first.rows}) != 1:
            problems.append(f"{cfg.region}: limit bound not constant")
        if not first.dominated():
            problems.append(f"{cfg.region}: domination violated")
        errors = [row.gsg_error for row in first.rows]
        tail = errors[1:]  # beyond the smallest grid
        if not all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])):
            problems.append(f"{cfg.region}: errors not monotone beyond small N: {errors}")
        if cfg.region == "ball" and any(row.centered_bound is None for row in first.rows):
            problems.append("ball: centered bound column missing")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 300.0
    report("figure reproduction", ok, f"problems={problems or 'none'}, runtime={elapsed:.1f}s")
