"""One benchmark run of one workload, in a fresh interpreter.

    python3 benchmark/child.py --workload <name> --out <dir> --t0 <monotonic> [--setup-only] [--trace] [--env]

`run.py` starts this from the repository root with `src` on PYTHONPATH and
passes, as --t0, the `time.monotonic()` reading it took just before the
spawn, so `setup_s` covers interpreter start, `import dmft_lab` and
`cli.load_config` of every config of the workload.  The result is written to
<dir>/result.json; the program's artifacts go to <dir>/artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import checks
import workloads


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def _execute(cli, workload, runs, out: Path):
    """The timed part: every cli call of the workload. Returns the report of
    `cli.compare_artifacts`, if the workload makes one."""
    for label, raw in runs:
        status = cli.run(raw, out=str(out / label), threads=1)
        if status != 0:
            raise RuntimeError(f"cli.run({label}) returned {status}")
    if workload.compare_artifacts:
        a, b = workload.compare_artifacts
        tolerances = dict(runs[0][1]["compare"]["tolerances"])
        return cli.compare_artifacts(out / a, out / b, tolerances).to_dict()
    return None


def _outputs(workload, runs, out: Path, report) -> dict:
    result = {"sha256": checks.artifact_hashes(out)}
    if workload.check == "passed":
        with open(out / "compare" / "report.json") as fh:
            report = json.load(fh)
        result["passed"] = report["passed"]
        result["worst_tol_ratio"] = checks.worst_tol_ratio(report)
    elif workload.compare_artifacts:
        result["worst_tol_ratio"] = checks.worst_tol_ratio(report)
        result["reference"] = {
            "tables": {
                label: checks.csv_summary(next((out / label).glob("kernels_*.csv"))) for label, _ in runs
            },
            "compare": checks.report_summary(report),
        }
    else:
        summaries = {label: checks.equilibrium_summary(out / label) for label, _ in runs}
        result["worst_tol_ratio"] = max(
            checks.tower_ratio(s, workloads.TOWER_TOLERANCE[label]) for label, s in summaries.items()
        )
        result["reference"] = summaries
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    runs = workload.runs(Path.cwd())
    from dmft_lab import cli

    for _, raw in runs:
        cli.load_config(raw)
    result = {"setup_s": time.monotonic() - args.t0}

    out_root = Path(args.out)
    if args.env:
        result["environment"] = _environment()
    if not args.setup_only:
        out = out_root / "artifacts"
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(run_id=out_root.name)
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            report = _execute(cli, workload, runs, out)
        finally:
            result["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write_spans(out_root / "spans.json")
            result["layers"] = tracer.layer_totals()
            result["counts"] = {**tracer.counts, **tracer.peaks}
        result["outputs"] = _outputs(workload, runs, out, report)
    with open(out_root / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
