from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from simplexgrad import experiments, regions
from simplexgrad.experiments import (
    REPRODUCE_IDS,
    ConvergenceResult,
    ExperimentConfig,
    antipodal_half,
    convergence,
    reproduce,
)
from simplexgrad.regions import (
    BallRegion,
    HyperrectRegion,
    ball_grid_sample,
    rect_arbitrary_sample,
    rect_grid_sample,
    sample_radius,
)


class TestReproduce:
    @pytest.mark.parametrize("example_id", list(REPRODUCE_IDS))
    def test_all_examples_pass(self, example_id):
        report = reproduce(example_id)
        assert report.passed, "\n".join(report.lines())

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown example"):
            reproduce("nope")

    def test_matrix_examples_ship_csv_artifacts(self):
        report = reproduce("rect-grid-matrix")
        assert "rect-grid-matrix.csv" in report.artifacts
        text = report.artifacts["rect-grid-matrix.csv"]
        assert text.splitlines()[1] == "2,6,rect-grid"

    def test_matrix_artifacts_byte_identical_across_runs(self):
        first = reproduce("rect-grid-matrix").artifacts["rect-grid-matrix.csv"]
        second = reproduce("rect-grid-matrix").artifacts["rect-grid-matrix.csv"]
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_report_lines_mention_status(self):
        lines = reproduce("ball-limit-quadratic").lines()
        assert any("PASS" in line for line in lines)


class TestAntipodalHalf:
    def test_half_columns_negate_to_full_sample(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 1.0, (3, 8)))
        half = antipodal_half(sample).directions
        assert half.shape == (2, sample.n_columns // 2)
        full = np.hstack([half, -half])
        got = sorted(map(tuple, np.round(full.T, 9).tolist()))
        want = sorted(map(tuple, np.round(sample.directions.T, 9).tolist()))
        assert got == want

    @pytest.mark.parametrize("n2", [4, 6, 10, 16, 32, 50, 64])
    def test_half_is_a_lazy_sample_of_the_first_half_turn(self, n2):
        full = ball_grid_sample(BallRegion((0.3, -0.2), 2.5, (7, n2)))
        half = antipodal_half(full)
        assert (half.tag, half.dim, half.n_columns) == ("ball-half", 2, 7 * n2 // 2)
        assert "directions" not in vars(half) and "directions" not in vars(full)
        # the columns with y2 <= N2/2, bitwise, whether or not S's arrays were built first
        want = np.array(full.directions).reshape(2, 7, n2)[:, :, : n2 // 2].reshape(2, -1)
        assert np.array_equal(half.directions, want)
        assert np.array_equal(antipodal_half(full).directions, want)
        assert not half.directions.flags.writeable and not half.indices.flags.writeable
        assert half.indices.tolist() == [[y1, y2] for y1 in range(1, 8) for y2 in range(1, n2 // 2 + 1)]
        assert half.to_csv().splitlines()[1] == f"2,{7 * n2 // 2},ball-half"
        # S S^T = 2 A A^T: the half's Gram is S's halved, and its radius is S's
        assert np.array_equal(half.gram_spectrum[0], full.gram_spectrum[0] / 2.0)
        direct = want @ want.T
        assert np.allclose(half.gram_spectrum[0], direct, rtol=0.0, atol=1e-12 * np.abs(direct).max())
        assert sample_radius(half) == sample_radius(full)

    def test_half_fills_only_the_first_half_turn(self, monkeypatch):
        full = ball_grid_sample(BallRegion((0.5, -0.25), 1.5, (5, 8)))
        half = antipodal_half(full)
        written, spherical_map = [], regions._spherical_map

        def counting_map(rho, theta, phis, out):
            written.append(out[0].size)
            spherical_map(rho, theta, phis, out)

        monkeypatch.setattr(regions, "_spherical_map", counting_map)
        directions = half.directions
        monkeypatch.undo()
        # the half-turn's 5 x 4 columns, none of the other half-turn's
        assert sum(written) == 20
        want = np.array(full.directions).reshape(2, 5, 8)[:, :, :4].reshape(2, -1)
        assert np.array_equal(directions, want)
        assert np.array_equal(half.indices, full.indices.reshape(5, 8, 2)[:, :4].reshape(-1, 2))

    def test_odd_azimuthal_count_rejected(self):
        sample = ball_grid_sample(BallRegion((0.0, 0.0), 1.0, (3, 5)))
        assert antipodal_half(sample) is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda: rect_grid_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (4, 4))),
            lambda: rect_arbitrary_sample(HyperrectRegion((0.0, 0.0), (1.0, 1.0), (4, 4)), seed=0),
            lambda: ball_grid_sample(BallRegion((0.0,) * 3, 1.0, (3, 4, 3))),
            # an array sample has no grid region, whatever its tag
            lambda: regions.SampleMatrix(
                np.array(ball_grid_sample(BallRegion((0.0, 0.0), 1.0, (3, 4))).directions), "ball-grid", None
            ),
        ],
        ids=["rect-grid", "rect-arbitrary", "ball-3d", "array-tagged-ball-grid"],
    )
    def test_a_sample_that_does_not_mirror_has_no_half(self, build):
        sample = build()
        assert antipodal_half(sample) is None
        assert sample._sums is None  # and nothing of the sample was read


class TestConvergence:
    def test_rect_rows_and_domination(self):
        config = ExperimentConfig(
            field_id="cubic2",
            region="rect",
            schedule=((4, 4), (8, 8), (16, 16)),
            nodes=32,
            seed=1,
        )
        result = convergence(config)
        assert [row.n_samples for row in result.rows] == [16, 64, 256]
        assert result.dominated()
        assert all(row.centered_bound is None for row in result.rows)
        limit_bounds = {row.limit_bound for row in result.rows}
        assert len(limit_bounds) == 1

    def test_ball_rows_have_centered_bound_for_even_counts(self):
        config = ExperimentConfig(
            field_id="cubic2",
            region="ball",
            schedule=((4, 4), (8, 8)),
            nodes=32,
            seed=1,
        )
        result = convergence(config)
        assert all(row.centered_bound is not None for row in result.rows)
        assert result.dominated()

    @pytest.mark.parametrize(
        "field_id, region, sample, schedule, mirrored",
        [
            ("cubic2", "rect", "grid", ((4, 4), (4, 6)), [False, False]),
            ("cubic2", "rect", "arbitrary", ((4, 4),), [False]),
            ("cubic2", "ball", "grid", ((4, 4), (4, 5), (3, 6)), [True, False, True]),
            ("affine3", "ball", "grid", ((3, 4, 3),), [False]),
        ],
        ids=["rect-grid", "rect-arbitrary", "ball-2d", "ball-3d"],
    )
    def test_centered_bound_is_blank_exactly_where_there_is_no_half(
        self, field_id, region, sample, schedule, mirrored, monkeypatch
    ):
        halves = []

        def recording_half(s):
            halves.append(antipodal_half(s))
            return halves[-1]

        monkeypatch.setattr(experiments, "antipodal_half", recording_half)
        config = ExperimentConfig(field_id=field_id, region=region, sample=sample, schedule=schedule, nodes=8)
        result = convergence(config)
        assert [half is not None for half in halves] == mirrored
        lines = result.to_csv().splitlines()[9:]
        for row, half, line in zip(result.rows, halves, lines, strict=True):
            assert (row.centered_bound is None) == (half is None) == (line.split(",")[6] == "")

    def test_affine_field_errors_vanish(self):
        config = ExperimentConfig(
            field_id="affine2",
            region="rect",
            schedule=((4, 4), (8, 8)),
            sample="arbitrary",
            nodes=32,
            seed=3,
        )
        result = convergence(config)
        for row in result.rows:
            assert row.gsg_error <= 1e-9
            assert row.limit_error <= 1e-9

    def test_csv_deterministic_and_versioned(self):
        config = ExperimentConfig(
            field_id="quad2",
            region="rect",
            schedule=((4, 4), (8, 8)),
            sample="arbitrary",
            nodes=32,
            seed=11,
        )
        first = convergence(config).to_csv()
        second = convergence(config).to_csv()
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "schema,convergence-v1"
        assert lines[1] == "field,quad2"
        header = lines[8].split(",")
        assert header == [
            "row",
            "counts",
            "n_samples",
            "radius",
            "gsg_error",
            "classical_bound",
            "centered_bound",
            "limit_bound",
            "limit_error",
        ]
        assert len(lines) == 9 + 2

    def test_seed_changes_arbitrary_rows(self):
        base = ExperimentConfig(
            field_id="quad2", region="rect", schedule=((8, 8),), sample="arbitrary", nodes=32, seed=1
        )
        other = ExperimentConfig(
            field_id="quad2", region="rect", schedule=((8, 8),), sample="arbitrary", nodes=32, seed=2
        )
        assert convergence(base).rows[0].gsg_error != convergence(other).rows[0].gsg_error

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(field_id="quad2", region="disk", schedule=((4, 4),))
        with pytest.raises(ValueError):
            ExperimentConfig(field_id="quad2", region="rect", schedule=())
        with pytest.raises(KeyError):
            ExperimentConfig(field_id="nope", region="rect", schedule=((4, 4),))
        with pytest.raises(ValueError):
            ExperimentConfig(field_id="quad2", region="ball", schedule=((4, 4),), sample="arbitrary")

    @pytest.mark.parametrize(
        "region, schedule, message",
        [
            ("rect", ((4, 4), (4, 4, 4)), r"schedule rows must have 2 counts for field quad2, got \(4, 4, 4\)"),
            ("rect", ((4, 1),), r"rect subdivision counts must be >= 2, got \(4, 1\)"),
            ("ball", ((2, 4),), r"ball subdivision counts must be >= 3, got \(2, 4\)"),
        ],
        ids=["row-length", "rect-count", "ball-count"],
    )
    def test_schedule_rows_are_checked_at_construction(self, region, schedule, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(field_id="quad2", region=region, schedule=schedule)

    @pytest.mark.parametrize("region", ["rect", "ball"])
    @pytest.mark.parametrize("count", [4.5, 4.0, "4"])
    def test_non_integer_schedule_counts_are_rejected(self, region, count):
        with pytest.raises(ValueError, match="counts must be integers"):
            ExperimentConfig(field_id="cubic2", region=region, schedule=((count, 4),), nodes=8)

    def test_numpy_integer_schedule_counts_are_accepted(self):
        config = ExperimentConfig(field_id="cubic2", region="rect", schedule=((np.int64(4), 4),), nodes=8)
        assert convergence(config).to_csv().splitlines()[-1].startswith("0,4x4,16,")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": 8.0}, "nodes_per_axis must be an integer"),
            ({"nodes": 1}, "nodes_per_axis must be at least 2"),
            ({"region": "ball", "radius": -1.0}, "radius must be positive"),
            ({"sides": (0.0, 1.0)}, "side lengths must be positive"),
            ({"sides": (-1.0, 1.0)}, "side lengths must be positive"),
        ],
        ids=["float-nodes", "one-node", "negative-radius", "zero-side", "negative-side"],
    )
    def test_limit_inputs_are_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**({"field_id": "cubic2", "region": "rect", "schedule": ((4, 4),)} | kwargs))

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be nonnegative"), (1.5, "seed must be an integer"), ("3", "seed must be an integer")],
        ids=["negative", "float", "string"],
    )
    def test_bad_seed_is_rejected_at_construction(self, seed, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(field_id="quad2", region="rect", sample="arbitrary", schedule=((4, 4),), nodes=8, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        config = ExperimentConfig(field_id="quad2", region="rect", schedule=((4, 4),), nodes=8, seed=np.int64(3))
        assert config.seed == 3 and type(config.seed) is int

    def test_a_nan_bound_is_not_dominated(self):
        config = ExperimentConfig(field_id="cubic2", region="ball", schedule=((4, 4),), nodes=8)
        row = convergence(config).rows[0]
        assert ConvergenceResult(config, [row]).dominated()
        for name in ("classical_bound", "centered_bound", "limit_bound", "gsg_error", "limit_error"):
            bad = ConvergenceResult(config, [replace(row, **{name: math.nan})])
            assert not bad.dominated(), name
