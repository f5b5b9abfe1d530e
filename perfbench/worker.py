"""One benchmark worker process.

Imports simplexgrad from the checkout's ``src/``, reports how long that took
from the launcher's spawn time, runs ``--passes`` passes of one workload, and
prints one JSON report as its last stdout line. Pass 0 is the cold pass.
With ``--trace 1`` the odd passes run with the tracer installed and the even
ones without, so the traced and untraced passes of one process can be
compared; the spans are written to ``--outdir`` at the end.

Usage: python3 perfbench/worker.py --workload rect-grid --seed 0 --passes 3
       --trace 0 --outdir perfbench/.out/x --spawned-at <time.monotonic()>
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import simplexgrad

    simplexgrad.field_ids()
    setup_s = time.monotonic() - args.spawned_at

    import json
    import resource
    import traceback

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    passes = []
    for i in range(args.passes):
        traced = bool(args.trace) and i % 2 == 1
        outdir = args.outdir / f"p{i}"
        outdir.mkdir(parents=True, exist_ok=True)
        record = {"index": i, "traced": traced, "exit_code": None, "error": None, "outputs": [], "layers": None}
        if traced:
            tracer.install()
            tracer.begin_pass(i)
        started = time.perf_counter()
        try:
            record["exit_code"], record["outputs"] = workload.run(args.seed, outdir)
        except Exception:  # a failed pass is counted, not fatal
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        finally:
            record["seconds"] = time.perf_counter() - started
            if traced:
                record["seconds"] = tracer.end_pass().duration
                tracer.uninstall()
        if traced:
            record["layers"] = layer_metrics(tracer.pass_spans(i))
        passes.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer.spans:
        with open(args.outdir / "spans.jsonl", "w", encoding="utf-8") as f:
            for s in tracer.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                    "pass": s.pass_id, "counts": s.counts}) + "\n")
    report = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "passes": passes, "env": environment()}
    print(json.dumps(report))
    return 0


def environment() -> dict:
    """Versions and thread settings this process actually runs with."""
    import ctypes
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = [line.split()[-1] for line in maps if "openblas" in line]
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
