"""Kernel tables shared by all pipelines, plus CSV/JSON I/O and comparisons.

A KernelTable holds correlation and response grids over a set of physical
times. Response grids are stored in step-density units (value per unit time),
which is the gamma-independent object that all sources can be compared on;
raw per-step responses of a discretized source are recovered by multiplying
by its step. Entries that a source did not compute are NaN.

CSV layout (one file per table): a single `t,s,value,stderr` header followed
by `# kernel: <name>` section markers. Vector kernels use s = -1, and the
scalar c_star_star uses t = s = -1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from typing import Optional

import numpy as np

# Kernel name -> number of time axes it spans, in CSV section order; the
# alpha_<k> sections follow.
_AXES = {
    "c_theta": 2, "c_eta": 2, "r_theta": 2, "r_eta": 2, "c_theta_star": 1, "r_eta_star": 1, "c_star_star": 0,
}
# Kernel names a comparison report can carry, in report order.
COMPARED_KERNELS = ("c_theta", "c_theta_star", "c_star_star", "c_eta", "r_theta", "r_eta", "r_eta_star", "alpha")


class GridAlignmentError(ValueError):
    """Raised when the compared times are not times that both tables carry."""


@dataclass
class KernelTable:
    times: np.ndarray
    gamma: float  # discretization step of the producing source; 0.0 = closed form
    source: str
    c_theta: np.ndarray
    c_theta_star: np.ndarray
    c_star_star: float
    c_eta: np.ndarray
    r_theta: np.ndarray  # density units, strictly lower triangle valid
    r_eta: np.ndarray  # density units, strictly lower triangle valid
    r_eta_star: np.ndarray
    alpha: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    stderr: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name, axes in _AXES.items():
            shape = (self.times.size,) * axes
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}")

    @property
    def n_times(self) -> int:
        return self.times.size

    def restrict(self, idx: np.ndarray) -> "KernelTable":
        idx = np.asarray(idx, dtype=int)
        sub = lambda grid: np.asarray(grid)[np.ix_(*[idx] * np.ndim(grid))]
        return replace(
            self,
            times=self.times[idx],
            alpha=self.alpha[idx] if self.alpha.size else self.alpha,
            stderr={k: sub(v) for k, v in self.stderr.items()},
            **{name: sub(getattr(self, name)) for name in _AXES},
        )


def empty_table(times, gamma: float, source: str, dim_alpha: int = 0) -> KernelTable:
    times = np.asarray(times, dtype=float)
    m = times.size
    # c_star_star too is an array (0-d), so read_table_csv fills every kernel in place
    grids = {name: np.full((m,) * axes, np.nan) for name, axes in _AXES.items()}
    return KernelTable(times, gamma, source, alpha=np.full((m, dim_alpha), np.nan), **grids)


# ---------------------------------------------------------------- CSV I/O


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_table_csv(table: KernelTable, path) -> None:
    times = [_fmt(t) for t in table.times]
    lines = ["t,s,value,stderr", f"# gamma: {_fmt(table.gamma)}", f"# source: {table.source}"]
    lines.append(f"# times: {','.join(times)}")
    sections = [(name, np.asarray(getattr(table, name)), table.stderr.get(name)) for name in _AXES]
    sections += [(f"alpha_{k}", table.alpha[:, k], None) for k in range(table.alpha.shape[1])]
    for name, grid, se in sections:
        lines.append(f"# kernel: {name}")
        keep = ~np.isnan(grid)
        values = map(_fmt, grid[keep].tolist())
        errors = repeat("") if se is None or grid.ndim == 0 else map(_fmt, se[keep].tolist())
        # entries in row-major order; s (and t) is -1 where the kernel has no such axis
        labels = [map(times.__getitem__, axis) for axis in np.argwhere(keep).T.tolist()]
        labels += [repeat("-1")] * (2 - grid.ndim)
        lines += [f"{t},{s},{v},{e}" for t, s, v, e in zip(*labels, values, errors)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table_csv(path) -> KernelTable:
    meta = {"gamma": "0", "source": "unknown"}
    sections: dict[str, list[tuple[float, float, float, Optional[float]]]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,s,value,stderr":
            raise ValueError(f"unexpected CSV header: {header!r}")
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                if key.strip() == "kernel":
                    rows = sections[val.strip()] = []
                else:
                    meta[key.strip()] = val.strip()
                continue
            t_s, s_s, v_s, e_s = line.split(",")
            rows.append((float(t_s), float(s_s), float(v_s), float(e_s) if e_s else None))
    if "times" not in meta:
        raise ValueError("CSV is missing the '# times:' line")
    times = np.array([float(v) for v in meta["times"].split(",")])
    dim_alpha = sum(1 for k in sections if k.startswith("alpha_"))
    table = empty_table(times, float(meta["gamma"]), meta["source"], dim_alpha)
    index = {t: i for i, t in enumerate(times)}
    for name, rows in sections.items():
        grid = table.alpha[:, int(name.removeprefix("alpha_"))] if name.startswith("alpha_") else getattr(table, name)
        se = None
        for t, s, v, e in rows:
            at = (index[t], index[s]) if grid.ndim == 2 else (index[t],) if grid.ndim == 1 else ()
            grid[at] = v
            if e is not None:
                if se is None:
                    se = table.stderr[name] = np.full(grid.shape, np.nan)
                se[at] = e
    return table


# ------------------------------------------------------------ grid times


def time_index(times: np.ndarray, t: float) -> Optional[int]:
    """Index of the grid time within 1e-9 of t, or None when t is off the grid."""
    idx = int(np.argmin(np.abs(times - t)))
    return None if abs(times[idx] - t) > 1e-9 else idx


# ------------------------------------------------------------- comparison


@dataclass
class KernelDiscrepancy:
    kernel: str
    max_abs: float
    rms: float
    n_entries: int
    tolerance: Optional[float] = None

    @property
    def passed(self) -> Optional[bool]:
        return None if self.tolerance is None else bool(self.max_abs <= self.tolerance)


@dataclass
class CompareReport:
    source_a: str
    source_b: str
    discrepancies: list
    w2_marginals: dict = field(default_factory=dict)
    w2_tolerance: Optional[float] = None
    passed: bool = True

    def to_dict(self) -> dict:
        out = asdict(self)
        disc = out.pop("discrepancies")
        out["kernels"] = [dict(k, passed=d.passed) for k, d in zip(disc, self.discrepancies)]
        return out


def _diff_stats(a: np.ndarray, b: np.ndarray, mask: np.ndarray):
    valid = mask & ~np.isnan(a) & ~np.isnan(b)
    if not np.any(valid):
        return None
    d = np.abs(a[valid] - b[valid])
    return float(d.max()), float(np.sqrt(np.mean(d**2))), int(d.size)


def compare_tables(
    table_a: KernelTable,
    table_b: KernelTable,
    tolerances: Optional[dict] = None,
    times=None,
) -> CompareReport:
    """Per-kernel max-abs and RMS discrepancies at the compared times.

    These are `times`, strictly increasing and each on both grids (within
    1e-9), or by default every time of `table_a` that `table_b` also carries.
    """
    tolerances = tolerances or {}
    if times is None:
        times = [t for t in table_a.times if time_index(table_b.times, t) is not None]
        if not times:
            raise GridAlignmentError("the tables share no time")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0):
        raise GridAlignmentError(f"compared times must be non-empty and strictly increasing, got {times.tolist()}")
    idx = [(time_index(table_a.times, t), time_index(table_b.times, t)) for t in times]
    off = [t for t, pair in zip(times.tolist(), idx) if None in pair]
    if off:
        raise GridAlignmentError(f"times {off} are not on both grids")
    ia, ib = zip(*idx)
    a, b = table_a.restrict(ia), table_b.restrict(ib)
    strict_lower = np.tril(np.ones((a.n_times,) * 2, dtype=bool), k=-1)
    out, passed = [], True
    for name in COMPARED_KERNELS:
        if name == "alpha" and not (a.alpha.size and a.alpha.shape == b.alpha.shape):
            continue
        ga, gb = np.asarray(getattr(a, name), float), np.asarray(getattr(b, name), float)
        mask = strict_lower if name in ("r_theta", "r_eta") else np.ones(ga.shape, bool)
        stats = _diff_stats(ga, gb, mask)
        if stats is None:
            continue
        max_abs, rms, n = stats
        tol = tolerances.get(name, tolerances.get("default"))
        disc = KernelDiscrepancy(kernel=name, max_abs=max_abs, rms=rms, n_entries=n, tolerance=tol)
        if disc.passed is False:
            passed = False
        out.append(disc)
    return CompareReport(source_a=table_a.source, source_b=table_b.source, discrepancies=out, passed=passed)


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
