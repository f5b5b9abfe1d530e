"""Record the seed-0 reference outputs in ``reference/`` from the current sources.

Convergence workloads keep their whole CSV, which is small; ``sample-export``
keeps the SHA-256 of each CSV for the byte-identity flag, since its numbers
are checked against the documented construction on every seed instead.

Usage: python3 perfbench/make_reference.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_DIR, WORKLOADS, SampleExportWorkload  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, workload in WORKLOADS.items():
            code, outputs = workload.run(0, Path(tmp))
            if code != 0:
                print(f"{name}: exit code {code}; no reference written", file=sys.stderr)
                return 1
            texts = {n: (Path(tmp) / n).read_text(encoding="utf-8") for n in outputs}
            if isinstance(workload, SampleExportWorkload):
                digests = {n: hashlib.sha256(t.encode("utf-8")).hexdigest() for n, t in texts.items()}
                (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
            else:
                (REFERENCE_DIR / f"{name}.csv").write_text(texts[f"{name}.csv"], encoding="utf-8", newline="\n")
            print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
