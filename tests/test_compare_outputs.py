"""``tools/compare_outputs.py`` reports where two outputs differ, and any byte difference still fails."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = """schema,convergence-v1
field,affine3
x0,0.0;0.0;0.0
row,counts,n_samples,limit_error
0,3x3x3,27,1.0000000000000000e-15
1,5x5x5,125,2.0
"""


def test_names_the_largest_relative_difference_and_the_text_fields_that_differ():
    changed = CSV.replace("1.0000000000000000e-15", "1.5e-15").replace("5x5x5", "5x5x6")
    changed = changed.replace("field,affine3", "field,affine4").replace("0.0;0.0;0.0", "0.0;0.0;1e-300")
    assert compare_outputs.field_differences(CSV, changed) == (
        "largest relative difference 1 in x0 (line 3); text differs in field (line 2), counts (line 6)"
    )


def test_relative_difference_is_taken_over_the_larger_magnitude():
    # 2.0 -> 2.5 is 0.2 of the larger, 1e-15 -> 1.1e-15 about 0.09
    changed = CSV.replace("1.0000000000000000e-15", "1.1e-15").replace(",2.0", ",2.5")
    report = compare_outputs.field_differences(CSV, changed)
    assert report == "largest relative difference 0.2 in limit_error (line 6); no text field differs"


def test_stdout_fields_are_named_by_their_keys():
    a = "check :: max_dev=7.348e-15 tol=1.0e-09 PASS\n"
    b = "check :: max_dev=7.349e-15 tol=1.0e-09 FAIL\n"
    assert compare_outputs.field_differences(a, b) == (
        "largest relative difference 0.000136 in max_dev (line 1); text differs in cell 5 (line 1)"
    )


def test_non_finite_and_differently_written_numbers():
    for a, b in [("nan", "2.5"), ("2.5", "nan"), ("inf", "-inf")]:
        assert compare_outputs.field_differences(f"a,b\n1,{a}\n", f"a,b\n1,{b}\n") == (
            "largest relative difference inf in b (line 2); no text field differs"
        )
    assert compare_outputs.field_differences("a,b\n1,0.0\n", "a,b\n1,-0.0\n") == (
        "largest relative difference 0 in b (line 2); no text field differs"
    )


def test_lines_or_cells_that_do_not_pair_up_are_text_differences():
    assert compare_outputs.field_differences(CSV, CSV + "2,9x9x9,729,3.0\n") == "6 lines != 7"
    assert compare_outputs.field_differences("x0,0.0;0.5\n", "x0,0.0\n") == "no number differs; text differs in x0 (line 1)"
    assert compare_outputs.field_differences("a,b\n1,2\n", "a,b\n1,2,3\n") == "no number differs; text differs in line 2"


def test_any_byte_difference_still_exits_one(monkeypatch, capsys):
    outputs = {
        "parent": (0, "wrote <out>/x.csv\n", {"x.csv": b"a,b\n1,0.0\n"}),
        "change": (0, "wrote <out>/x.csv\n", {"x.csv": b"a,b\n1,-0.0\n"}),
    }
    monkeypatch.setattr(compare_outputs, "COMMANDS", [("one", [])])
    monkeypatch.setattr(compare_outputs, "run", lambda checkout, argv: outputs[checkout.name])
    assert compare_outputs.main(["parent", "change"]) == 1
    assert capsys.readouterr().out == (
        "DIFF one: x.csv differs (largest relative difference 0 in b (line 2); no text field differs)\n"
    )
    monkeypatch.setattr(compare_outputs, "run", lambda checkout, argv: outputs["parent"])
    assert compare_outputs.main(["parent", "change"]) == 0
    assert capsys.readouterr().out == "SAME one: same (exit 0, 1 files)\n"
