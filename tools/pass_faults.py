"""Count the page faults, time and memory high-water mark of warm benchmark passes in two checkouts.

Usage::

    python tools/pass_faults.py PARENT CHANGE --workload ball-3d-limit [--seed 0] [--passes 6] [--rounds 3]

PARENT and CHANGE are checkouts of this repository. Each round starts one
fresh process per checkout, the parent first in even rounds and the change
first in odd ones. That process puts the checkout's ``src/`` and
``perfbench/`` on ``sys.path`` and runs ``--passes`` passes of the
``perfbench/workloads.py`` workload in-process, as a benchmark worker does,
with BLAS threads pinned to the CPUs it may run on. Around each pass it
reads ``ru_minflt`` (``getrusage``) and the time; at its end it reads
``VmHWM`` from ``/proc/self/status`` and checks every pass's outputs as the
benchmark does. Pass 0 is cold; the others are warm. Per checkout the
script prints the median warm-pass minor-fault count, the median and
minimum warm-pass time, the median final ``VmHWM`` over the rounds and the
passes whose outputs failed the check. A root without ``src/simplexgrad``
is an error: one line on stderr, exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path("src") / "simplexgrad"
SIDES = ("parent", "change")

# run in a fresh process: argv is ROOT WORKLOAD SEED PASSES OUTDIR; prints one JSON line
CHILD = r"""
import json, resource, sys, time
from pathlib import Path
root, name, seed, passes, outdir = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), Path(sys.argv[5])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from workloads import WORKLOADS
workload = WORKLOADS[name]
faults, seconds, failed = [], [], 0
for i in range(passes):
    passdir = outdir / f"p{i}"
    passdir.mkdir(parents=True)
    before, started = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    code, outputs = workload.run(seed, passdir)
    seconds.append(time.perf_counter() - started)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    texts = {n: (passdir / n).read_text(encoding="utf-8") for n in outputs if (passdir / n).is_file()}
    failed += bool(workload.check(seed, code, texts).problems)
with open("/proc/self/status", encoding="utf-8") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"faults": faults, "seconds": seconds, "vmhwm_mb": hwm_kb / 1024.0, "failed": failed}))
"""


def run_child(root: Path, workload: str, seed: int, passes: int) -> dict:
    """One fresh process's passes of ``workload`` in checkout ``root``: the JSON line it prints."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    with tempfile.TemporaryDirectory() as outdir:
        cmd = [sys.executable, "-c", CHILD, str(root.resolve()), workload, str(seed), str(passes), outdir]
        done = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    """One side's warm-pass faults and times, its ``VmHWM`` and failed passes, over its rounds."""
    faults = [f for run in runs for f in run["faults"][1:]]
    seconds = [s for run in runs for s in run["seconds"][1:]]
    return {
        "warm_faults": statistics.median(faults),
        "warm_ms_median": 1e3 * statistics.median(seconds),
        "warm_ms_min": 1e3 * min(seconds),
        "vmhwm_mb": statistics.median(run["vmhwm_mb"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "passes": sum(len(run["faults"]) for run in runs),
    }


def main(argv=None, run=run_child) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a perfbench workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=6, help="passes a process, the first cold")
    parser.add_argument("--rounds", type=int, default=3, help="fresh processes a side")
    args = parser.parse_args(argv)
    if args.passes < 2 or args.rounds < 1:
        parser.error("--passes must be at least 2 and --rounds at least 1")
    roots = dict(zip(SIDES, (args.parent, args.change)))
    for root in roots.values():
        if not (root / PACKAGE).is_dir():
            print(f"error: {root} has no {PACKAGE}; give checkout roots, not the package", file=sys.stderr)
            return 2
    runs = {side: [] for side in SIDES}
    for k in range(args.rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(roots[side], args.workload, args.seed, args.passes))
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds of {args.passes} passes a side, pass 0 cold")
    print(f"{'side':<8}{'warm faults':>12}{'warm ms med':>13}{'warm ms min':>13}{'VmHWM MB':>10}{'failed':>8}")
    for side in SIDES:
        s = summary(runs[side])
        print(f"{side:<8}{s['warm_faults']:>12g}{s['warm_ms_median']:>13.2f}{s['warm_ms_min']:>13.2f}"
              f"{s['vmhwm_mb']:>10.3f}{s['failed']:>5}/{s['passes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
