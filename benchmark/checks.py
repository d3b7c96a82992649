"""Output checks: what a run produced, reduced to values that can be compared.

The summaries parse the artifacts with this file's own code, not with
`dmft_lab.kernels`, so a defect in the program's reader cannot hide one in
its writer.  Deterministic workloads are compared with `reference.json`
within a tolerance that admits floating-point reassociation and nothing more.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
_SAMPLES = 9  # evenly spaced entries kept from each kernel section
_EQUILIBRIUM_KEYS = ("omega", "omega_star", "mse", "mse_star", "ymse", "ymse_star", "free_energy", "sweeps")


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file the program wrote under `out`."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def csv_summary(path: Path) -> dict:
    """Per kernel section: entry count, sum, sum of squares and sampled values."""
    sections: dict[str, list[float]] = {}
    current = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# kernel:"):
                current = line.partition(":")[2].strip()
                sections[current] = []
            elif line and not line.startswith("#") and current is not None:
                sections[current].append(float(line.split(",")[2]))
    out = {}
    for name, vals in sections.items():
        n = len(vals)
        picks = sorted({round(k * (n - 1) / (_SAMPLES - 1)) for k in range(_SAMPLES)}) if n else []
        out[name] = {
            "n": n,
            "sum": math.fsum(vals),
            "sumsq": math.fsum(v * v for v in vals),
            "samples": [vals[i] for i in picks],
        }
    return out


def report_summary(report: dict) -> dict:
    return {
        k["kernel"]: {"max_abs": k["max_abs"], "rms": k["rms"], "n_entries": k["n_entries"]}
        for k in report["kernels"]
    }


def worst_tol_ratio(report: dict) -> float:
    """Largest discrepancy / tolerance over toleranced kernels and W2 marginals."""
    ratios = [k["max_abs"] / k["tolerance"] for k in report["kernels"] if k["tolerance"]]
    w2_tol = report.get("w2_tolerance")
    if w2_tol:
        ratios += [w / w2_tol for w in report["w2_marginals"].values()]
    return max(ratios)


def equilibrium_summary(run_dir: Path) -> dict:
    with open(run_dir / "equilibrium.json") as fh:
        sol = json.load(fh)
    out = {"solution": {k: sol[k] for k in _EQUILIBRIUM_KEYS}}
    sweep = run_dir / "sweep.csv"
    if sweep.exists():
        header, *rows = sweep.read_text().split()
        out["sweep"] = [dict(zip(header.split(","), map(float, r.split(",")))) for r in rows]
    return out


def tower_ratio(summary: dict, tolerance: float) -> float:
    """|mse - mse_star| / tolerance over the fixed point and its sweep rows."""
    points = [summary["solution"], *summary.get("sweep", [])]
    return max(abs(p["mse"] - p["mse_star"]) / tolerance for p in points)


def mismatches(got, want, path: str = "") -> list[str]:
    """Where `got` differs from `want`: ints, strings and bools exactly,
    floats within REL_TOL/ABS_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
