from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from simplexgrad import experiments
from simplexgrad.cli import _parse_schedule, main
from simplexgrad.experiments import ExperimentConfig, convergence


class TestScheduleParsing:
    def test_power_range(self):
        assert _parse_schedule("2^2..2^5") == (4, 8, 16, 32)

    def test_comma_list(self):
        assert _parse_schedule("4,8,16") == (4, 8, 16)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            _parse_schedule("3^2..3^4")

    def test_empty_range(self):
        with pytest.raises(ValueError):
            _parse_schedule("2^5..2^2")

    @pytest.mark.parametrize("text", ["4,2^3", "2^2..8", "four"])
    def test_mixed_forms_name_the_accepted_ones(self, text):
        with pytest.raises(ValueError, match=r"'2\^a\.\.2\^b'.*'4,8,16'"):
            _parse_schedule(text)


class TestCli:
    def test_list_fields(self, capsys):
        assert main(["list-fields"]) == 0
        out = capsys.readouterr().out
        assert "quad2" in out and "cubic2" in out

    def test_reproduce_passes_and_writes_artifacts(self, tmp_path: Path, capsys):
        code = main(["reproduce", "rect-grid-matrix", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        written = tmp_path / "rect-grid-matrix.csv"
        assert written.exists()
        assert "\r" not in written.read_text(encoding="utf-8")

    def test_reproduce_limit_examples(self, capsys):
        assert main(["reproduce", "rect-limit-quadratic"]) == 0
        assert main(["reproduce", "ball-limit-quadratic"]) == 0
        capsys.readouterr()

    def test_unknown_example_is_usage_error(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_convergence_writes_deterministic_csv(self, tmp_path: Path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "convergence",
            "--field",
            "cubic2",
            "--region",
            "rect",
            "--schedule",
            "2^2..2^4",
            "--nodes",
            "32",
            "--seed",
            "5",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        text = out_a.read_text(encoding="utf-8")
        assert text.startswith("schema,convergence-v1\n")
        assert "\r" not in text

    def test_convergence_ball_to_stdout(self, capsys):
        code = main(
            [
                "convergence",
                "--field",
                "quad2",
                "--region",
                "ball",
                "--radius",
                "1.0",
                "--schedule",
                "4,8",
                "--nodes",
                "32",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("schema,convergence-v1")

    def test_convergence_x0_override(self, capsys):
        code = main(
            [
                "convergence",
                "--field",
                "quad2",
                "--region",
                "rect",
                "--x0",
                "0.0,0.0",
                "--schedule",
                "4",
                "--nodes",
                "32",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "x0,0.0;0.0" in out

    def test_three_dimensional_ball_with_even_counts(self, capsys):
        code = main(["convergence", "--field", "affine3", "--region", "ball", "--schedule", "2^2..2^3"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[9:]]
        assert [row[1] for row in rows] == ["4x4x4", "8x8x8"]
        assert all(row[6] == "" for row in rows)  # no mirrored structure in 3-d: centered_bound blank

    @pytest.mark.parametrize(
        "args",
        [
            ["--region", "rect", "--sides", "1,inf"],
            ["--region", "ball", "--radius", "nan"],
            ["--region", "rect", "--x0=nan,1"],
        ],
    )
    def test_non_finite_region_is_usage_error(self, args, capsys):
        code = main(["convergence", "--field", "cubic2", *args, "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "finite" in err and "Traceback" not in err

    def test_rect_sides_follow_the_field_dimension(self, capsys):
        code = main(["convergence", "--field", "affine3", "--region", "rect", "--schedule", "4", "--nodes", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sides,1.0;1.0;1.0" in out
        # the library's config defaults are the CLI's
        config = ExperimentConfig(field_id="affine3", region="rect", schedule=((4, 4, 4),), nodes=8)
        assert convergence(config).to_csv() == out
        code = main(["convergence", "--field", "affine3", "--region", "rect", "--sides", "1,1",
                     "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: sides must have 3 entries for field affine3, got 2\n"

    def test_x0_of_the_wrong_length_is_rejected_at_construction(self, capsys):
        with pytest.raises(ValueError, match="x0 must have 2 entries for field cubic2, got 3"):
            ExperimentConfig(field_id="cubic2", region="rect", schedule=((4, 4),), x0=(1, 2, 3))
        code = main(["convergence", "--field", "cubic2", "--region", "rect", "--x0", "1,2,3", "--schedule", "4"])
        assert code == 2
        assert capsys.readouterr().err == "error: x0 must have 2 entries for field cubic2, got 3\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--region", "rect", "--schedule", "4,1"], "error: rect subdivision counts must be >= 2, got (1, 1)\n"),
            (["--region", "ball", "--schedule", "2"], "error: ball subdivision counts must be >= 3, got (2, 2)\n"),
            # the rows up to 2^11 are under the 10M column budget, 4096^2 is not
            (["--region", "rect", "--schedule", "2^8..2^12"],
             "error: grid would need 16777216 columns; budget is 10000000\n"),
            (["--region", "ball", "--schedule", "4096"], "error: grid would need 16777216 columns; budget is 10000000\n"),
            (["--region", "rect", "--schedule", "4", "--nodes", "3163"],
             "error: grid would need 10004569 quadrature nodes; budget is 10000000\n"),
        ],
        ids=["rect", "ball", "rect-budget", "ball-budget", "node-budget"],
    )
    def test_bad_schedule_counts_are_rejected_before_the_limit_runs(self, args, message, capsys, monkeypatch):
        def no_limit(*args, **kwargs):
            raise AssertionError("the limit quadrature ran")

        monkeypatch.setattr(experiments, "limit_gradient_box", no_limit)
        monkeypatch.setattr(experiments, "limit_gradient_ball", no_limit)
        code = main(["convergence", "--field", "quad2", "--nodes", "8", *args])
        assert code == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--region", "rect", "--nodes", "1"], "error: nodes_per_axis must be at least 2\n"),
            (["--region", "ball", "--radius=-1"], "error: radius must be positive\n"),
            (["--region", "rect", "--sides", "0,1"], "error: side lengths must be positive\n"),
            (["--region", "rect", "--sides=-1,1"], "error: side lengths must be positive\n"),
        ],
        ids=["one-node", "negative-radius", "zero-side", "negative-side"],
    )
    def test_bad_limit_inputs_are_rejected_before_the_limit_runs(self, args, message, capsys, monkeypatch):
        def no_limit(*args, **kwargs):
            raise AssertionError("the limit quadrature ran")

        monkeypatch.setattr(experiments, "limit_gradient_box", no_limit)
        monkeypatch.setattr(experiments, "limit_gradient_ball", no_limit)
        code = main(["convergence", "--field", "quad2", "--schedule", "4", "--nodes", "8", *args])
        assert code == 2
        assert capsys.readouterr().err == message

    def test_bound_violation_exits_one_and_still_writes_the_csv(self, capsys, tmp_path, monkeypatch):
        bound = experiments.classical_bound
        # a zero classical bound sits below every row's nonzero error
        monkeypatch.setattr(experiments, "classical_bound", lambda *args: replace(bound(*args), value=0.0))
        out = tmp_path / "rect.csv"
        code = main(["convergence", "--field", "cubic2", "--region", "rect", "--schedule", "4,8", "--nodes", "8",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "bound domination violated\n"
        rows = out.read_text().splitlines()[-2:]
        assert [row.split(",")[:3] + row.split(",")[5:6] for row in rows] == [
            ["0", "4x4", "16", "0.0"],
            ["1", "8x8", "64", "0.0"],
        ]

    def test_negative_seed_is_rejected(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["convergence", "--field", "quad2", "--region", "rect", "--schedule", "4", "--seed", "-1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_evaluation_failure_is_one_line_error(self, capsys):
        code = main(["convergence", "--field", "cubic2", "--region", "rect", "--x0", "1e300,1e300",
                     "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 3
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: field evaluation failed at node -1 (point [1.e+300 1.e+300]): non-finite value inf"
        ]
        assert "Traceback" not in err

    def test_negative_x0_needs_the_equals_form(self, capsys):
        code = main(["convergence", "--field", "quad2", "--region", "rect", "--x0=-0.5,0.25",
                     "--schedule", "4", "--nodes", "8"])
        assert code == 0
        assert "x0,-0.5;0.25" in capsys.readouterr().out
        # argparse reads a separate '-0.5,0.25' as an option, so this form is a usage error
        assert main(["convergence", "--field", "quad2", "--region", "rect", "--x0", "-0.5,0.25",
                     "--schedule", "4", "--nodes", "8"]) == 2

    def test_overflowing_point_prints_one_line_and_no_warning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--field", "cubic2", "--region", "rect", "--x0", "1e300,1e300",
                         "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_quadrature_over_node_budget_is_usage_error(self, capsys):
        # 3163^2 = 10,004,569 nodes, just over the 10M budget
        code = main(["convergence", "--field", "cubic2", "--region", "ball", "--schedule", "4", "--nodes", "3163"])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "budget" in err
