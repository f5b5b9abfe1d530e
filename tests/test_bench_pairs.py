"""``tools/bench_pairs.py`` alternates the two sides, counts wins without ties and writes the BENCH schema."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = ("setup_s", "cold_run_s", "run_s", "peak_rss_mb")


class FakeRunner:
    """Stands in for ``perfbench/run.py``: records each call and returns the next scripted run_s."""

    def __init__(self, run_s: dict[str, list[float]]):
        self.run_s = {side: list(values) for side, values in run_s.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds, trace):
        side = checkout.name
        self.calls.append((side, workload, seed, seconds, trace))
        values = {"setup_s": 0.2, "cold_run_s": 0.15, "peak_rss_mb": 40.0}
        values["run_s"] = self.run_s[side].pop(0) if trace == 0 else 0.1
        if trace:
            values = {"gsg.solve_s": 0.05 if side == "parent" else 0.03}
        result = {
            "correct": True,
            "attempted": 6,
            "failed": 1 if side == "change" else 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
            "stderr": ["worker for rect-grid timed out"] if side == "change" else [],
        }
        return result, {"commit": f"{side}-commit", "workload": workload}


def _main(tmp_path, runner, *extra):
    out = tmp_path / "BENCH.json"
    argv = ["parent", "change", "--workload", "rect-grid", "--seed", "7", "--seconds", "3", "--pairs", "4",
            "--out", str(out), *extra]
    assert bench_pairs.main(argv, run=runner) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_pairs_alternate_which_side_runs_first(tmp_path):
    runner = FakeRunner({"parent": [1.0] * 4, "change": [0.5] * 4})
    _main(tmp_path, runner)
    assert [side for side, *_ in runner.calls] == ["parent", "change", "change", "parent"] * 2
    assert {call[1:] for call in runner.calls} == {("rect-grid", 7, 3, 0)}


def test_the_file_has_the_bench_schema(tmp_path):
    runner = FakeRunner({"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 1.5, 2.5, 3.5]})
    bench = _main(tmp_path, runner, "--claim", "rect-grid:run_s", "--claim-bound", "9 of 10", "--note", "a note",
                  "--traced-seconds", "2")
    assert set(bench) >= {"command", "method", "parent", "seed", "workloads", "env", "claimed", "notes"}
    assert bench["parent"] == "parent-commit" and bench["seed"] == 7
    entry = bench["workloads"]["rect-grid"]
    assert set(entry) == {*METRICS, "attempted_passes", "failed_passes", "correct", "stderr"}
    for metric in METRICS:
        assert set(entry[metric]) == {"parent", "change", "change_wins", "pairs", "median_change_pct"}
        for side in ("parent", "change"):
            assert set(entry[metric][side]) == {"median", "q1", "q3", "iqr", "n"}
    run_s = entry["run_s"]
    assert run_s["parent"]["median"] == 2.5 and run_s["change"]["median"] == 2.0 and run_s["parent"]["n"] == 4
    # statistics.quantiles(n=4), exclusive method, of 1..4
    assert (run_s["parent"]["q1"], run_s["parent"]["q3"], run_s["parent"]["iqr"]) == (1.25, 3.75, 2.5)
    assert run_s["change_wins"] == 4 and run_s["pairs"] == 4 and run_s["median_change_pct"] == -20.0
    assert entry["failed_passes"] == {"parent": 0, "change": 4} and entry["attempted_passes"]["parent"] == 24
    # each failed pass's reason is kept with its pair
    assert entry["stderr"] == {"parent": [], "change": [f"pair {k}: worker for rect-grid timed out" for k in range(4)]}
    assert bench["env"]["rect-grid"]["change"]["commit"] == "change-commit"
    assert bench["claimed"] == {"workload": "rect-grid", "metric": "run_s", "bound": "9 of 10"}
    assert bench["notes"] == ["a note"]
    solve = bench["traced_single_run"]["workloads"]["rect-grid"]["gsg.solve_s"]
    assert solve == {"parent": 0.05, "change": 0.03, "unit": "s"}


def test_ties_count_for_neither_side(tmp_path):
    runner = FakeRunner({"parent": [1.0, 1.0, 2.0, 1.0], "change": [1.0, 0.5, 2.0, 1.5]})
    entry = _main(tmp_path, runner)["workloads"]["rect-grid"]
    assert entry["run_s"]["change_wins"] == 1  # pair 2 only: pairs 1 and 3 tie, pair 4 the parent wins
    assert entry["setup_s"]["change_wins"] == 0  # every pair ties
    assert bench_pairs.wins([1.0, 2.0], [2.0, 1.0], "higher") == 1


_STUB_RUN = {
    "parent": """import json
print('env ' + json.dumps({"commit": "parent-commit"}))
metrics = {name: {"value": 1.0, "unit": "s"} for name in ("setup_s", "cold_run_s", "run_s", "peak_rss_mb")}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
""",
    "change": """import sys
print("Fatal: too few passes of rect-grid completed", file=sys.stderr)
print("second line", file=sys.stderr)
sys.exit(1)
""",
}


def test_a_failed_run_names_its_side_pair_workload_and_stderr(tmp_path, capsys):
    for side, source in _STUB_RUN.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(source, encoding="utf-8")
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "rect-grid", "--seed", "7",
            "--seconds", "1", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("error: rect-grid, change side, pair 0: perfbench/run.py exited 1; stderr: "
                   "Fatal: too few passes of rect-grid completed | second line\n")
    assert not out.exists()
