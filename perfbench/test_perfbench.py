"""Tests of the benchmark itself: span arithmetic, tracing transparency, exact counts, checks.

Run with: python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import BALL_COUNTS, RECT_COUNTS, REFERENCE_DIR, WORKLOADS, SampleExportWorkload  # noqa: E402

EXACT = ("regions.columns", "regions.unique_columns", "fields.points", "quadrature.nodes", "regions.radius_calls",
         "gsg.calls", "linalg.pinv_calls", "bounds.calls", "closed_forms.calls", "limits.calls")


def closed_form_counts(workload) -> dict:
    if isinstance(workload, SampleExportWorkload):
        box, ball = math.prod(RECT_COUNTS), math.prod(BALL_COUNTS)
        # the 3-d polar grid repeats each shell's columns at the phi = pi pole
        poles = BALL_COUNTS[0] * (BALL_COUNTS[1] - 1)
        return dict.fromkeys(EXACT, 0) | {"regions.columns": box + ball, "regions.unique_columns": box + ball - poles}
    cols = [k**workload.dim for k in workload.per_axis]
    rows = len(cols)
    ball = workload.region[1] == "ball"
    # even azimuthal counts on a 2-d ball add antipodal_half, its radius and the centered bound
    mirrored = sum(1 for k in workload.per_axis if ball and k % 2 == 0)
    poles = sum(k * (k - 1) for k in workload.per_axis) if ball and workload.dim == 3 else 0
    nodes = workload.nodes**workload.dim
    return {
        "regions.columns": sum(cols),
        "regions.unique_columns": sum(cols) - poles,
        "fields.points": sum(c + 1 for c in cols) + nodes + 1,  # N + 1 points per row and per limit
        "quadrature.nodes": nodes,
        "regions.radius_calls": 2 * rows + mirrored,
        "gsg.calls": rows,
        "linalg.pinv_calls": 0,
        "bounds.calls": rows + mirrored + 1,
        "closed_forms.calls": 2 if ball else 1,
        "limits.calls": 1,
    }


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("pass", 0.0, 10.0, -1, 0),
        Span("experiments.convergence", 1.0, 9.0, 0, 0),
        Span("gsg.simplex_gradient", 2.0, 5.0, 1, 0),
        Span("fields.eval", 2.5, 3.5, 2, 0),
        Span("bounds.classical_bound", 6.0, 8.5, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 1.0, 2.5])
    metrics = layer_metrics(spans)
    assert metrics["experiments.self_s"] == pytest.approx(2.5)
    assert metrics["gsg.solve_s"] == pytest.approx(2.0)
    assert metrics["fields.eval_s"] == pytest.approx(1.0)
    assert metrics["bounds.classical_s"] == pytest.approx(2.5)
    assert metrics["bounds.calls"] == 1 and metrics["gsg.calls"] == 1


def test_layer_wide_self_time_leaves_out_named_spans():
    spans = [
        Span("experiments.convergence", 0.0, 6.0, -1, 0),
        Span("experiments.antipodal_half", 1.0, 2.0, 0, 0),
        Span("experiments.ConvergenceResult.to_csv", 3.0, 5.0, 0, 0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["experiments.self_s"] == pytest.approx(3.0)
    assert metrics["experiments.antipodal_half_s"] == pytest.approx(1.0)
    assert metrics["experiments.to_csv_s"] == pytest.approx(2.0)


def _run(workload, outdir: Path, tracer: Tracer | None, pass_id: int) -> tuple[dict, dict | None]:
    outdir.mkdir()
    if tracer is not None:
        tracer.install()
        tracer.begin_pass(pass_id)
    try:
        code, names = workload.run(0, outdir)
    finally:
        if tracer is not None:
            tracer.end_pass()
            tracer.uninstall()
    assert code == 0
    texts = {n: (outdir / n).read_bytes() for n in names}
    return texts, None if tracer is None else layer_metrics(tracer.pass_spans(pass_id))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_passes_write_same_bytes_and_exact_counts(name, tmp_path):
    workload = WORKLOADS[name]
    tracer = Tracer()
    plain, _ = _run(workload, tmp_path / "plain", None, 0)
    first_texts, first = _run(workload, tmp_path / "traced1", tracer, 1)
    second_texts, second = _run(workload, tmp_path / "traced2", tracer, 2)
    assert first_texts == plain and second_texts == plain
    counts = {k: first[k] for k in EXACT}
    assert counts == {k: second[k] for k in EXACT}
    assert counts == closed_form_counts(workload)
    # uninstall put every original back
    from simplexgrad import experiments, gsg

    assert not hasattr(experiments.simplex_gradient, "__wrapped__")
    assert not hasattr(gsg.ScalarField.__call__, "__wrapped__")


def test_convergence_check_flags_wrong_outputs():
    workload = WORKLOADS["ball-polar"]
    reference = (REFERENCE_DIR / "ball-polar.csv").read_text(encoding="utf-8")
    assert workload.check(0, 0, {"ball-polar.csv": reference}).problems == []
    assert workload.check(0, 0, {"ball-polar.csv": reference}).byte_identical

    lines = reference.split("\n")
    row = lines[9].split(",")
    row[4] = repr(float(row[4]) * (1 + 1e-6))
    perturbed = "\n".join(lines[:9] + [",".join(row)] + lines[10:])
    assert any("beyond rtol" in p for p in workload.check(0, 0, {"ball-polar.csv": perturbed}).problems)

    row = lines[9].split(",")
    row[4] = repr(float(row[6]) * 2)  # gsg_error above the centered bound
    violated = "\n".join(lines[:9] + [",".join(row)] + lines[10:])
    assert any("exceeds" in p for p in workload.check(0, 0, {"ball-polar.csv": violated}).problems)

    truncated = "\n".join(lines[:-2]) + "\n"
    assert any("rows, expected" in p for p in workload.check(0, 0, {"ball-polar.csv": truncated}).problems)
    assert workload.check(0, 1, {"ball-polar.csv": reference}).problems == ["exit code 1"]


def test_sample_check_flags_wrong_outputs(tmp_path):
    workload = WORKLOADS["sample-export"]
    code, names = workload.run(3, tmp_path)
    texts = {n: (tmp_path / n).read_text(encoding="utf-8") for n in names}
    check = workload.check(3, code, texts)
    assert check.problems == [] and check.byte_identical is None
    # another seed draws other offsets
    assert workload.check(4, code, texts).problems
    lines = texts["ball-grid.csv"].split("\n")
    cells = lines[100].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[100] = ",".join(cells)
    assert workload.check(3, code, {**texts, "ball-grid.csv": "\n".join(lines)}).problems


def test_seeded_x0_below_zero_reaches_the_cli(tmp_path):
    workload = WORKLOADS["ball-3d-limit"]
    x0 = next(a for a in workload.argv(22, tmp_path / "out.csv") if a.startswith("--x0"))
    assert x0.startswith("--x0=-")  # affine3 is anchored at 0, so seed 22 draws a negative coordinate
    code, names = workload.run(22, tmp_path)
    texts = {n: (tmp_path / n).read_text(encoding="utf-8") for n in names}
    assert workload.check(22, code, texts).problems == []
