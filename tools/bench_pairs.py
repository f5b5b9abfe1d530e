"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload rect-grid --seed 2424 \\
        --seconds 28 --pairs 10 --out BENCH_24.json \\
        [--claim rect-grid:run_s --claim-bound TEXT] [--traced-seconds 10] [--note TEXT ...]

PARENT and CHANGE are checkouts of this repository. For each workload (give
``--workload`` once per workload), pair k runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
both checkouts, the parent first in even pairs and the change first in odd
ones, and reads the JSON result on the last line of its stdout and the
``env`` line above it. For each end-to-end metric of ``BENCHMARK.json`` the
file gives, per side, the median and quartiles (``statistics.quantiles``,
n=4) of the runs' values and their count, the number of pairs the change
won (its value better in the metric's direction; a tie counts for neither
side), and the change's median relative to the parent's, in percent. With
``--traced-seconds``, one ``--trace 1`` run per side and workload adds the
per-layer medians under ``traced_single_run``. Each workload's entry keeps
the stderr lines of every run, prefixed with their pair, per side: where
``run.py`` says why a pass failed (a worker's timeout or exit code, or the
check's problems). A run that exits nonzero ends the series: one line on
stderr names its workload, side and pair, the exit code and ``run.py``'s
stderr lines, and the script exits 1 without writing the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    """A ``perfbench/run.py`` run exited nonzero; the message gives its exit code and stderr lines."""


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of ``BENCHMARK.json`` and its better direction ("lower" or "higher")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The JSON result, with its stderr lines under ``"stderr"``, and the env record of one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RunFailed(f"perfbench/run.py exited {done.returncode}; stderr: " + " | ".join(done.stderr.splitlines()))
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {**json.loads(lines[-1]), "stderr": done.stderr.splitlines()}, env


def spread(values: list[float]) -> dict:
    """Median, quartiles, interquartile range and count of ``values``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value is strictly better; a tie counts for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def run_side(run, checkout: Path, side: str, label: str, workload: str, seed: int, seconds: int, trace: int):
    """``run(checkout, ...)``; a ``RunFailed`` is raised again with the workload, the side and ``label`` (the pair)."""
    try:
        return run(checkout, workload, seed, seconds, trace)
    except RunFailed as exc:
        raise RunFailed(f"{workload}, {side} side, {label}: {exc}") from None


def pairs(run, parent: Path, change: Path, workload: str, seed: int, seconds: int, count: int) -> dict:
    """Run ``count`` alternating pairs of one workload; return the values, env records and pass counts per side."""
    checkouts = dict(zip(SIDES, (parent, change)))
    got = {side: {"values": [], "env": None, "attempted": 0, "failed": 0, "correct": True, "stderr": []}
           for side in SIDES}
    for k in range(count):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result, env = run_side(run, checkouts[side], side, f"pair {k}", workload, seed, seconds, 0)
            record = got[side]
            record["values"].append({name: m["value"] for name, m in result["metrics"].items()})
            record["env"] = env
            record["attempted"] += result["attempted"]
            record["failed"] += result["failed"]
            record["correct"] = record["correct"] and result["correct"]
            record["stderr"] += [f"pair {k}: {line}" for line in result.get("stderr", ())]
    return got


def summary(got: dict, metrics: dict[str, str]) -> dict:
    """One workload's entry of the BENCH file from the runs of both sides."""
    out = {}
    for name, better in metrics.items():
        parent, change = ([v[name] for v in got[side]["values"]] for side in SIDES)
        p, c = spread(parent), spread(change)
        out[name] = {
            "parent": p,
            "change": c,
            "change_wins": wins(parent, change, better),
            "pairs": len(parent),
            "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"],
        }
    for key, field in (("attempted_passes", "attempted"), ("failed_passes", "failed"), ("correct", "correct"),
                       ("stderr", "stderr")):
        out[key] = {side: got[side][field] for side in SIDES}
    return out


def traced(run, parent: Path, change: Path, workload: str, seed: int, seconds: int) -> dict:
    """Per-layer medians of one traced run per side."""
    results = {side: run_side(run, checkout, side, "traced run", workload, seed, seconds, 1)[0]
               for side, checkout in zip(SIDES, (parent, change))}
    out = {
        name: {**{side: results[side]["metrics"][name]["value"] for side in SIDES}, "unit": m["unit"]}
        for name, m in results["parent"]["metrics"].items()
    }
    out["correct"] = {side: results[side]["correct"] for side in SIDES}
    return out


def bench_file(args, run) -> dict:
    """The BENCH file's contents from the pair series (and traced runs) that ``args`` asks for."""
    metrics = end_to_end()
    workloads, env = {}, {}
    for workload in args.workload:
        got = pairs(run, args.parent, args.change, workload, args.seed, args.seconds, args.pairs)
        workloads[workload] = summary(got, metrics)
        env[workload] = {side: got[side]["env"] for side in SIDES}
        run_s = workloads[workload].get("run_s")
        if run_s is not None:
            print(f"{workload}: run_s {run_s['parent']['median']:.4g} -> {run_s['change']['median']:.4g} s, "
                  f"change better in {run_s['change_wins']} of {run_s['pairs']}", flush=True)
    bench = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.seconds} --trace 0",
        "method": "alternating parent/change pairs (even pairs parent first, odd pairs change first), each side run "
                  "from its own checkout; per side: median and quartiles (statistics.quantiles, n=4) of the runs' "
                  "reported metric; a win is a pair where the change's value is better in the metric's direction "
                  "(BENCHMARK.json); ties count for neither",
        "parent": env[args.workload[0]]["parent"].get("commit", "unknown"),
        "seed": args.seed,
        "workloads": workloads,
        "env": env,
        "pairs_per_workload": {w: args.pairs for w in args.workload},
    }
    if args.traced_seconds:
        bench["traced_single_run"] = {
            "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.traced_seconds} --trace 1",
            "note": "one run per side, per-layer medians over traced passes; not a pair series",
            "workloads": {w: traced(run, args.parent, args.change, w, args.seed, args.traced_seconds) for w in args.workload},
        }
    claimed = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        claimed = {"workload": workload, "metric": metric, "bound": args.claim_bound}
    bench["claimed"] = claimed
    bench["notes"] = args.note
    return bench


def main(argv=None, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="a workload; give once per workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-seconds", type=int, default=0, help="one --trace 1 run per side of this length")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC that the change claims to improve")
    parser.add_argument("--claim-bound", default="", help="what the claim must meet")
    parser.add_argument("--note", action="append", default=[], help="a line for the notes list")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        bench = bench_file(args, run)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
