"""simplexgrad benchmark launcher.

Runs one workload (or ``all`` of them, one after another) as a single
caller in a closed loop: worker processes are started one at a time, each
imports simplexgrad from this checkout's ``src/`` and runs a few passes, and
the next starts only when the previous has exited. BLAS threads are pinned
to the number of CPUs this process may run on; no other threads are used.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: fresh process start until ``import simplexgrad`` is done and
  the field registry is loaded, median over set-up probes and workers;
* ``cold_run_s``: the first pass of each worker, median over workers;
* ``run_s``: the later passes of each worker, median over all of them;
* ``peak_rss_mb``: ``ru_maxrss`` of each worker, median over workers.

With ``--trace 1`` workers alternate traced and untraced passes and the
result holds the per-layer metrics (median over traced passes) and
``trace.overhead_pct``, the traced passes' median time over the untraced
warm passes' median.

Every pass's outputs are checked (see ``workloads.py``); a pass that raises,
exits nonzero or writes a wrong output counts as failed. The summary lines
print ``error_rate`` = failed / attempted and the environment; the last
stdout line is the JSON result.

Usage: python3 perfbench/run.py --workload rect-grid --seed 0 --seconds 28 --trace 0
       python3 perfbench/run.py --workload all --seconds 28
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CALLS, SELF_TIME
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

SETUP_PROBES = 5
# passes per worker: the cold pass, then warm passes (traced and untraced alternating with --trace 1)
PASSES = {0: 3, 1: 5}
# every run, workers included, ends within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "cold_run_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "regions.columns": "count",
    "regions.sample_bytes": "B",
    "regions.unique_column_ratio": "ratio",
    "regions.csv_bytes": "B",
    "fields.points": "count",
    "quadrature.nodes": "count",
    "quadrature.node_bytes": "B",
    "trace.overhead_pct": "%",
}


class Fatal(RuntimeError):
    """The benchmark cannot produce a result at all."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def spawn(workload: str, seed: int, passes: int, trace: int, outdir: Path, env: dict, deadline: float) -> dict | None:
    """Run one worker to completion and return its report, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(trace), "--outdir", str(outdir)]
    try:
        done = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker for {workload} exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    rundir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(rundir, ignore_errors=True)

    setup = []
    for k in range(SETUP_PROBES):
        report = spawn(name, seed, 0, 0, rundir / f"probe{k}", env, deadline)
        if report is None:
            raise Fatal("simplexgrad could not be imported in a fresh process")
        setup.append(report["setup_s"])

    reports, attempted, failed, identical, compared = [], 0, 0, 0, 0
    window = time.monotonic()
    worker_s = 0.0
    # start no worker that would end more than half its length after the window
    while not reports or time.monotonic() - window + worker_s / 2 < seconds:
        spawned = time.monotonic()
        outdir = rundir / f"w{len(reports)}"
        report = spawn(name, seed, PASSES[trace], trace, outdir, env, deadline)
        worker_s = time.monotonic() - spawned
        attempted += PASSES[trace]
        if report is None:
            failed += PASSES[trace]
            reports.append({"passes": []})
            continue
        reports.append(report)
        setup.append(report["setup_s"])
        first_texts = None
        for p in report["passes"]:
            passdir = outdir / f"p{p['index']}"
            texts = {n: (passdir / n).read_text(encoding="utf-8") for n in p["outputs"] if (passdir / n).is_file()}
            shutil.rmtree(passdir, ignore_errors=True)
            if p["error"] is not None:
                problems = ["raised an exception"]
            else:
                check = workload.check(seed, p["exit_code"], texts)
                problems = check.problems
                if check.byte_identical is not None:
                    compared += 1
                    identical += check.byte_identical
            first_texts = texts if first_texts is None else first_texts
            if texts != first_texts:
                problems.append("output bytes differ from the worker's first pass (traced vs untraced)")
            p["failed"] = bool(problems)
            if problems:
                failed += 1
                print(f"{name} seed {seed} pass {p['index']}: " + "; ".join(problems[:5]), file=sys.stderr)
        if time.monotonic() > deadline:
            break

    ok = [p for r in reports for p in r["passes"] if not p["failed"]]
    samples = {"setup_s": setup}
    if trace == 0:
        samples["cold_run_s"] = [p["seconds"] for p in ok if p["index"] == 0]
        samples["run_s"] = [p["seconds"] for p in ok if p["index"] > 0]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reports if r["passes"]]
    else:
        traced = [p for p in ok if p["traced"]]
        samples["traced_pass_s"] = [p["seconds"] for p in traced]
        samples["untraced_pass_s"] = [p["seconds"] for p in ok if not p["traced"] and p["index"] > 0]
    if not all(samples.values()):
        raise Fatal(f"too few passes of {name} completed to report every metric")
    if trace == 0:
        metrics = {k: statistics.median(samples[k]) for k in END_TO_END}
        units = END_TO_END
    else:
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in PER_LAYER if k != "trace.overhead_pct"}
        traced_s, untraced_s = (statistics.median(samples[k]) for k in ("traced_pass_s", "untraced_pass_s"))
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        units = PER_LAYER
    env_record = {**next(r["env"] for r in reversed(reports) if "env" in r), "commit": commit(), "workload": name, "seed": seed, "trace": trace,
                  "blas_threads_pinned": int(env["OPENBLAS_NUM_THREADS"])}

    lines = [f"{name}  seed={seed}  trace={trace}  workers={len(reports)}  passes={attempted}  "
             f"wall={time.monotonic() - started:.1f}s"]
    for key in units:
        spread = ""
        if key in samples:
            s = samples[key]
            spread = f"  (n={len(s)}, min {min(s):.4g}, max {max(s):.4g})"
        lines.append(f"  {key:<30} {metrics[key]:.10g} {units[key]}{spread}")
    lines.append(f"  {'error_rate':<30} {failed / attempted:.6g} ratio  ({failed}/{attempted} passes failed)")
    if compared:
        lines.append(f"  seed-0 reference bytes identical in {identical}/{compared} checked passes")
    lines.append("env " + json.dumps(env_record, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    rundir.mkdir(parents=True, exist_ok=True)
    (rundir / "result.json").write_text(json.dumps({**result, "env": env_record, "samples": samples}, indent=1) + "\n",
                                        encoding="utf-8")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simplexgrad benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "simplexgrad" / "__init__.py").is_file():
        print(f"error: no simplexgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
