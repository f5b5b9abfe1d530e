from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from simplexgrad.cli import _parse_schedule, main


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
        assert "sides,1.0;1.0;1.0" in capsys.readouterr().out
        code = main(["convergence", "--field", "affine3", "--region", "rect", "--sides", "1,1",
                     "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: sides must have 3 entries for field affine3, got 2\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_evaluation_failure_is_one_line_error(self, capsys):
        code = main(["convergence", "--field", "cubic2", "--region", "rect", "--x0", "1e300,1e300",
                     "--schedule", "4", "--nodes", "8"])
        err = capsys.readouterr().err
        assert code == 3
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: field evaluation failed at column -1 (point [1.e+300 1.e+300]): non-finite value inf"
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
