"""dmft-lab benchmark: one workload, measured from outside the package.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Every run of the workload is a fresh
interpreter (`child.py`) started only after the previous one ended: a closed
loop with one client.  BLAS is pinned to BLAS_THREADS threads and the
pipelines get `--threads 1`.  Runs are started while the next one is
expected to end within --seconds; at least one is made (two with --trace 1:
one untraced, one traced).

The last line of standard output is the result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  The lines before it are a
human-readable table, the environment record and the ROADMAP baseline rows
this workload covers.  Workload definitions and their rationale are in
workloads.py; the layer-to-metric map is in README.md.
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
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_PROBES = 3  # extra set-up-only interpreters per run, besides the workload runs
HARD_LIMIT_S = 170.0  # the benchmark must exit within 180 s
WORK_DIR = ".bench_run"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "worst_tol_ratio": "ratio"}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cli.load_config.busy_s": "s",
    "cli.run.self_s": "s",
    "dmft.solve_dmft.busy_s": "s",
    "dmft.solve_dmft.self_s": "s",
    "dmft.corr_row_entries": "count",
    "dmft.resp_entries": "count",
    "dmft.resp_tensor_bytes": "bytes",
    "dmft.EtaSide.add_step.busy_s": "s",
    "dmft.CholeskyExtender.extend.busy_s": "s",
    "dmft.chol_clamped_steps": "count",
    "dmft.chol_jitter_events": "count",
    "dmft.linear_gaussian_dmft.busy_s": "s",
    "simulator.evolve.calls": "count",
    "simulator.evolve.busy_s": "s",
    "simulator.coord_steps": "count",
    "simulator.empirical_kernels.busy_s": "s",
    "simulator.resample_to_common_size.busy_s": "s",
    "model.sample_instance.busy_s": "s",
    "priors.drift_s.busy_s": "s",
    "priors.dtheta_drift_s.busy_s": "s",
    "priors.gradient_map_G.busy_s": "s",
    "mp_oracle.oracle_table.busy_s": "s",
    "mp_oracle.corr_kernels.calls": "count",
    "mp_oracle.resp_kernels.calls": "count",
    "kernels.write_table_csv.calls": "count",
    "kernels.write_table_csv.busy_s": "s",
    "kernels.write_table_csv.bytes": "bytes",
    "kernels.read_table_csv.calls": "count",
    "kernels.read_table_csv.busy_s": "s",
    "kernels.read_table_csv.bytes": "bytes",
    "kernels.compare_tables.busy_s": "s",
    "equilibrium.solve_fixed_point.calls": "count",
    "equilibrium.solve_fixed_point.busy_s": "s",
    "equilibrium.sweeps": "count",
    "equilibrium.mse_pair.busy_s": "s",
    "equilibrium.posterior_moments.busy_s": "s",
    "equilibrium.free_energy.busy_s": "s",
    "equilibrium.posterior_matrix_bytes": "bytes",
}
# Shares of the traced wall time that show each workload stresses its layer.
SHARES = {
    "adaptive-compare": ("dmft.solve_dmft.self_s",),
    "mixture-compare": ("dmft.solve_dmft.self_s",),
    "oracle-grid": ("mp_oracle.oracle_table.busy_s", "kernels.write_table_csv.busy_s", "kernels.read_table_csv.busy_s"),
    "equilibrium-sweep": ("equilibrium.posterior_moments.busy_s",),
}


@dataclass
class Child:
    """One finished child interpreter: its result file and its rusage."""

    name: str
    ok: bool
    result: dict
    maxrss_kb: int
    problem: str = ""
    traced: bool = False


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("DMFT_LAB_OUT", None)
    return env


def spawn(root: Path, work: Path, name: str, workload: str, flags: list[str], deadline: float) -> Child:
    out = work / name
    out.mkdir(parents=True)
    log_path = out / "log.txt"
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", workload, "--out", str(out), "--t0", repr(t0), *flags],
            cwd=root, env=_child_env(root), stdout=log, stderr=subprocess.STDOUT,
        )
        # wait4 instead of Popen.wait: it also returns the child's rusage.
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = out / "result.json"
    if timed_out or proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        why = "timed out" if timed_out else f"exit status {proc.returncode}"
        return Child(name, False, {}, usage.ru_maxrss, f"{why}\n{tail}")
    with open(result_path) as fh:
        return Child(name, True, json.load(fh), usage.ru_maxrss)


def _fail(child: Child, problem: str) -> None:
    child.ok, child.problem = False, problem


def _check(child: Child, workload: workloads.Workload, first: Child | None, first_traced: Child | None,
           reference: dict) -> None:
    """The output check: byte-identical artifacts, pass or reference values, exact counts."""
    outputs = child.result["outputs"]
    if first is not None and outputs["sha256"] != first.result["outputs"]["sha256"]:
        _fail(child, "artifacts differ from the first run's (sha256)")
    elif workload.check == "passed" and outputs["passed"] is not True:
        _fail(child, "compare report did not pass its tolerances")
    elif workload.check == "reference":
        diff = checks.mismatches(outputs["reference"], reference[workload.name])
        if diff:
            _fail(child, "differs from reference.json:\n  " + "\n  ".join(diff[:20]))
    if child.ok and child.traced and first_traced is not None:
        if _exact_counts(child) != _exact_counts(first_traced):
            _fail(child, "exact counts differ from the first traced run's")


def _exact_counts(child: Child) -> dict:
    calls = {k: v for k, v in child.result["layers"].items() if k.endswith(".calls")}
    return {**calls, **child.result["counts"]}


def _environment(root: Path, seed: int, probe: Child) -> dict:
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    return {
        **probe.result.get("environment", {}),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": git or "unknown",
        "seed": seed,
    }


def _layer_metrics(child: Child) -> dict[str, float]:
    values = {**child.result["layers"], **child.result["counts"]}
    return {name: values.get(name, 0) for name in PER_LAYER if not name.startswith("trace.")}


def _print_table(rows: list[tuple]) -> None:
    for name, value, unit, n in rows:
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:60s} {shown:>16s} {unit:6s} n={n}")


def _print_baseline(workload: str, trace: bool, observed: dict) -> None:
    with open(HERE / "baseline.json") as fh:
        rows = [r for r in json.load(fh)["rows"] if r["workload"] == workload and r["trace"] == int(trace)]
    if not rows:
        return
    print("ROADMAP baseline rows covered by this run (roadmap | first recorded | now):")
    for r in rows:
        now = observed.get(r["metric"])
        if now is not None and r.get("per_call"):
            now = now / observed[r["per_call"]]
        shown = "n/a" if now is None else f"{now:.4g}"
        print(f"  {r['row']:44s} {r['roadmap']:>8} | {r['first_recorded']:>8} | {shown:>8} {r['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    began = time.monotonic()

    root = Path.cwd()
    missing = [p for p in ["src/dmft_lab/__init__.py", *(f"{workloads.CONFIG_DIR}/{c}" for c in workloads.REQUIRED_CONFIGS)]
               if not (root / p).is_file()]
    if missing:
        print(f"not a dmft-lab checkout (missing {', '.join(missing)}); run from the repository root", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hard_deadline = began + HARD_LIMIT_S

    # The warm-up interpreter fills bytecode and file caches and records the
    # environment; its set-up time is not reported.
    probe = spawn(root, work, "warmup", workload.name, ["--setup-only", "--env"], hard_deadline)
    children = [probe]
    start = time.monotonic()
    for i in range(SETUP_PROBES):
        children.append(spawn(root, work, f"setup{i}", workload.name, ["--setup-only"], hard_deadline))

    runs: list[Child] = []
    first: Child | None = None
    first_traced: Child | None = None
    min_runs = 2 if trace else 1
    while True:
        traced = trace and bool(runs)  # with --trace 1 the first run is the untraced reference
        child = spawn(root, work, f"run{len(runs)}", workload.name, ["--trace"] if traced else [], hard_deadline)
        child.traced = traced
        if child.ok:
            _check(child, workload, first, first_traced, reference)
            if child.ok:
                first = first or child
                if traced:
                    first_traced = first_traced or child
        runs.append(child)
        children.append(child)
        now = time.monotonic()
        estimate = max(c.result.get("wall_s", 0.0) + c.result.get("setup_s", 0.0) for c in runs) + 0.5
        if len(runs) >= min_runs and now + estimate > start + args.seconds:
            break
        if now + 1.5 * estimate > hard_deadline:
            break

    failed = [c for c in children if not c.ok]
    for c in failed:
        print(f"FAILED {c.name}: {c.problem}", file=sys.stderr)
    good = [c for c in runs if c.ok]
    untraced = [c for c in good if not c.traced]
    traced_runs = [c for c in good if c.traced]
    setups = [c.result["setup_s"] for c in children[1:] if c.ok]
    correct = not failed and bool(untraced) and (bool(traced_runs) or not trace)

    print(f"workload {workload.name}: {workload.why}")
    print(f"  closed loop, 1 client; {len(runs)} runs + {SETUP_PROBES} set-up probes in {time.monotonic() - start:.1f} s")
    metrics: dict[str, dict] = {}
    rows = []
    if correct and not trace:
        values = {
            "wall_s": (statistics.median(c.result["wall_s"] for c in untraced), len(untraced)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(c.maxrss_kb / 1024 for c in untraced), len(untraced)),
            "worst_tol_ratio": (untraced[0].result["outputs"]["worst_tol_ratio"], len(untraced)),
        }
        for name, (value, n) in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
            rows.append((f"{name} (median)" if name != "worst_tol_ratio" else name, value, END_TO_END[name], n))
    elif correct:
        per_run = [_layer_metrics(c) for c in traced_runs]
        traced_wall = statistics.median(c.result["wall_s"] for c in traced_runs)
        values = {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - statistics.median(c.result["wall_s"] for c in untraced),
        }
        for name in per_run[0]:
            # counts repeat exactly (checked), so they are reported as counted
            exact = PER_LAYER[name] != "s"
            values[name] = per_run[0][name] if exact else statistics.median(r[name] for r in per_run)
        for name in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": PER_LAYER[name]}
            rows.append((name, values[name], PER_LAYER[name], len(traced_runs)))
        for name in SHARES[workload.name]:
            rows.append((f"share of trace.wall_s: {name}", values[name] / traced_wall, "1", len(traced_runs)))
    _print_table(rows)
    print(f"  fail_frac {len(failed)}/{len(children)} = {len(failed) / len(children):g} (runs and set-up probes)")
    if correct:
        observed = {k: m["value"] for k, m in metrics.items()}
        if workload.name == "equilibrium-sweep" and not trace:
            observed["gaussian_fixed_point.sweeps"] = untraced[0].result["outputs"]["reference"]["gaussian"]["solution"]["sweeps"]
        _print_baseline(workload.name, trace, observed)
    print(json.dumps({"environment": _environment(root, args.seed, probe)}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(children), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
