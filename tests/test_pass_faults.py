"""``tools/pass_faults.py`` alternates the sides, summarises warm passes only and rejects a root without the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pass_faults.py"
_spec = importlib.util.spec_from_file_location("pass_faults", TOOL)
pass_faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pass_faults)


class FakeChild:
    """Stands in for the child process: records each call and returns scripted passes (pass 0 cold)."""

    def __init__(self):
        self.calls = []

    def __call__(self, root, workload, seed, passes):
        side = root.name
        self.calls.append((side, workload, seed, passes))
        k = sum(1 for call in self.calls if call[0] == side)
        warm = 500 if side == "change" else 800
        return {
            "faults": [9000] + [warm + k] * (passes - 1),
            "seconds": [0.5] + [0.020 + 0.001 * k] * (passes - 1),
            "vmhwm_mb": 40.0 - k if side == "parent" else 39.0,
            "failed": 1 if side == "change" else 0,
        }


def _roots(tmp_path) -> list[str]:
    roots = []
    for side in pass_faults.SIDES:
        (tmp_path / side / "src" / "simplexgrad").mkdir(parents=True)
        roots.append(str(tmp_path / side))
    return roots


def test_rounds_alternate_and_only_warm_passes_count(tmp_path, capsys):
    child = FakeChild()
    argv = [*_roots(tmp_path), "--workload", "ball-3d-limit", "--seed", "7", "--passes", "4", "--rounds", "3"]
    assert pass_faults.main(argv, run=child) == 0
    assert [side for side, *_ in child.calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {call[1:] for call in child.calls} == {("ball-3d-limit", 7, 4)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ball-3d-limit seed 7: 3 rounds of 4 passes a side, pass 0 cold"
    # rounds k = 1..3: warm faults 801..803 and 501..503 (the cold 9,000 and 0.5 s are left out),
    # warm times 21..23 ms, VmHWM the median over rounds
    assert lines[2].split() == ["parent", "802", "22.00", "21.00", "38.000", "0/12"]
    assert lines[3].split() == ["change", "502", "22.00", "21.00", "39.000", "3/12"]


def test_the_child_runs_a_workload_in_process(tmp_path):
    root = tmp_path / "checkout"
    (root / "src" / "simplexgrad").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        "from types import SimpleNamespace\n"
        "class W:\n"
        "    def run(self, seed, outdir):\n"
        "        (outdir / 'out.txt').write_text(str(seed))\n"
        "        return 0, ['out.txt']\n"
        "    def check(self, seed, code, texts):\n"
        "        return SimpleNamespace(problems=[] if texts == {'out.txt': str(seed)} else ['wrong'])\n"
        "WORKLOADS = {'w': W()}\n"
    )
    got = pass_faults.run_child(root, "w", 3, 2)
    assert len(got["faults"]) == len(got["seconds"]) == 2 and got["failed"] == 0
    assert all(f >= 0 for f in got["faults"]) and got["vmhwm_mb"] > 0


def test_a_root_without_the_package_exits_two(tmp_path, capsys):
    parent, change = _roots(tmp_path)
    package = Path(change) / "src" / "simplexgrad"
    assert pass_faults.main([parent, str(package), "--workload", "rect-grid"], run=FakeChild()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {package} has no src/simplexgrad; give checkout roots, not the package\n"
