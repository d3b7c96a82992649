"""Record the reference outputs of the deterministic workloads.

    python3 benchmark/record_reference.py

Run it from the repository root.  It runs oracle-grid and equilibrium-sweep
once each and writes what they produced to benchmark/reference.json, which
`run.py` then requires every later run to match within checks.REL_TOL and
checks.ABS_TOL.  Re-record only for a change that is meant to move outputs,
and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / run.WORK_DIR / "record"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        if workload.check != "reference":
            continue
        child = run.spawn(root, work, name, name, [], time.monotonic() + 600)
        if not child.ok:
            print(f"{name} failed: {child.problem}", file=sys.stderr)
            return 1
        reference[name] = child.result["outputs"]["reference"]
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
