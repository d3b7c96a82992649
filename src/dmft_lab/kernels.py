"""Kernel tables shared by all pipelines, plus CSV/JSON I/O and comparisons.

A KernelTable holds correlation and response grids over a set of physical
times. Response grids are stored in step-density units (value per unit time),
which is the gamma-independent object that all sources can be compared on;
raw per-step responses of a discretized source are recovered by multiplying
by its step. Entries that a source did not compute are NaN.

CSV layout (one file per table): a single `t,s,value,stderr` header followed
by `# kernel: <name>` section markers. Scalar/vector kernels use s = -1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_MATRIX_KERNELS = ("c_theta", "c_eta", "r_theta", "r_eta")
_VECTOR_KERNELS = ("c_theta_star", "r_eta_star")
# Kernel names a comparison report can carry, in report order.
COMPARED_KERNELS = ("c_theta", "c_theta_star", "c_star_star", "c_eta", "r_theta", "r_eta", "r_eta_star", "alpha")


class GridAlignmentError(ValueError):
    """Raised when two tables do not share a common grid refinement."""


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
        m = self.times.size
        for name in _MATRIX_KERNELS:
            if getattr(self, name).shape != (m, m):
                raise ValueError(f"{name} must have shape ({m}, {m})")
        for name in _VECTOR_KERNELS:
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have shape ({m},)")

    @property
    def n_times(self) -> int:
        return self.times.size

    def r_theta_raw(self) -> np.ndarray:
        """Per-step theta response of the producing discretization."""
        if self.gamma == 0.0:
            raise ValueError("raw responses are only defined for discretized sources")
        return self.r_theta * self.gamma

    def r_eta_raw(self) -> np.ndarray:
        if self.gamma == 0.0:
            raise ValueError("raw responses are only defined for discretized sources")
        return self.r_eta * self.gamma

    def restrict(self, idx: np.ndarray) -> "KernelTable":
        idx = np.asarray(idx, dtype=int)
        return KernelTable(
            times=self.times[idx],
            gamma=self.gamma,
            source=self.source,
            c_theta=self.c_theta[np.ix_(idx, idx)],
            c_theta_star=self.c_theta_star[idx],
            c_star_star=self.c_star_star,
            c_eta=self.c_eta[np.ix_(idx, idx)],
            r_theta=self.r_theta[np.ix_(idx, idx)],
            r_eta=self.r_eta[np.ix_(idx, idx)],
            r_eta_star=self.r_eta_star[idx],
            alpha=self.alpha[idx] if self.alpha.size else self.alpha,
            stderr={
                k: (v[np.ix_(idx, idx)] if v.ndim == 2 else v[idx])
                for k, v in self.stderr.items()
            },
        )


def empty_table(times, gamma: float, source: str, dim_alpha: int = 0) -> KernelTable:
    times = np.asarray(times, dtype=float)
    m = times.size
    nanmat = lambda: np.full((m, m), np.nan)
    return KernelTable(
        times=times,
        gamma=gamma,
        source=source,
        c_theta=nanmat(),
        c_theta_star=np.full(m, np.nan),
        c_star_star=np.nan,
        c_eta=nanmat(),
        r_theta=nanmat(),
        r_eta=nanmat(),
        r_eta_star=np.full(m, np.nan),
        alpha=np.full((m, dim_alpha), np.nan),
    )


# ---------------------------------------------------------------- CSV I/O


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_table_csv(table: KernelTable, path) -> None:
    lines = ["t,s,value,stderr"]
    lines.append(f"# gamma: {_fmt(table.gamma)}")
    lines.append(f"# source: {table.source}")
    lines.append(f"# times: {','.join(_fmt(t) for t in table.times)}")

    def err(name, i, j=None):
        se = table.stderr.get(name)
        if se is None:
            return ""
        return _fmt(se[i] if j is None else se[i, j])

    for name in _MATRIX_KERNELS:
        grid = getattr(table, name)
        lines.append(f"# kernel: {name}")
        for i in range(table.n_times):
            for j in range(table.n_times):
                if np.isnan(grid[i, j]):
                    continue
                lines.append(
                    f"{_fmt(table.times[i])},{_fmt(table.times[j])},{_fmt(grid[i, j])},{err(name, i, j)}"
                )
    for name in _VECTOR_KERNELS:
        vec = getattr(table, name)
        lines.append(f"# kernel: {name}")
        for i in range(table.n_times):
            if np.isnan(vec[i]):
                continue
            lines.append(f"{_fmt(table.times[i])},-1,{_fmt(vec[i])},{err(name, i)}")
    lines.append("# kernel: c_star_star")
    if not np.isnan(table.c_star_star):
        lines.append(f"-1,-1,{_fmt(table.c_star_star)},")
    for k in range(table.alpha.shape[1]):
        lines.append(f"# kernel: alpha_{k}")
        for i in range(table.n_times):
            if np.isnan(table.alpha[i, k]):
                continue
            lines.append(f"{_fmt(table.times[i])},-1,{_fmt(table.alpha[i, k])},")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table_csv(path) -> KernelTable:
    gamma, source, times = 0.0, "unknown", None
    sections: dict[str, list[tuple[float, float, float, Optional[float]]]] = {}
    current = None
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
                key = key.strip()
                if key == "gamma":
                    gamma = float(val)
                elif key == "source":
                    source = val.strip()
                elif key == "times":
                    times = np.array([float(v) for v in val.split(",")])
                elif key == "kernel":
                    current = val.strip()
                    sections[current] = []
                continue
            t_s, s_s, v_s, e_s = line.split(",")
            sections[current].append(
                (float(t_s), float(s_s), float(v_s), float(e_s) if e_s else None)
            )
    if times is None:
        raise ValueError("CSV is missing the '# times:' line")
    table = empty_table(times, gamma, source, dim_alpha=sum(1 for k in sections if k.startswith("alpha_")))
    index = {t: i for i, t in enumerate(times)}
    for name, rows in sections.items():
        for t, s, v, e in rows:
            i = index[t] if t >= 0 else None
            if name in _MATRIX_KERNELS:
                j = index[s]
                getattr(table, name)[i, j] = v
                if e is not None:
                    table.stderr.setdefault(name, np.full((times.size, times.size), np.nan))[i, j] = e
            elif name in _VECTOR_KERNELS:
                getattr(table, name)[i] = v
                if e is not None:
                    table.stderr.setdefault(name, np.full(times.size, np.nan))[i] = e
            elif name == "c_star_star":
                table.c_star_star = v
            elif name.startswith("alpha_"):
                table.alpha[i, int(name.split("_")[1])] = v
    return table


# ---------------------------------------------------------- grid alignment


def time_index(times: np.ndarray, t: float) -> Optional[int]:
    """Index of the grid time within 1e-9 of t, or None when t is off the grid."""
    idx = int(np.argmin(np.abs(times - t)))
    return None if abs(times[idx] - t) > 1e-9 else idx


def restrict_to_times(table: KernelTable, times) -> KernelTable:
    """Restrict a table to an explicit list of grid times (exact match)."""
    idx = []
    for t in np.asarray(times, dtype=float):
        i = time_index(table.times, t)
        if i is None:
            raise GridAlignmentError(f"time {t} not on the table grid")
        idx.append(i)
    return table.restrict(np.asarray(idx))


def _uniform_step(times: np.ndarray) -> float:
    d = np.diff(times)
    if d.size == 0:
        return 0.0
    if np.max(np.abs(d - d[0])) > 1e-9:
        raise GridAlignmentError("non-uniform time grid")
    return float(d[0])


def grid_align(table_a: KernelTable, table_b: KernelTable):
    """Restrict the finer-grid table to the coarser grid.

    Requires one grid step to divide the other (within 1e-9); the common range
    is the overlap of the two horizons.
    """
    sa, sb = _uniform_step(table_a.times), _uniform_step(table_b.times)
    if sa == 0.0 or sb == 0.0:
        if table_a.n_times != table_b.n_times or np.max(np.abs(table_a.times - table_b.times)) > 1e-9:
            raise GridAlignmentError("degenerate grids must coincide")
        return table_a, table_b
    fine, coarse, swap = (table_a, table_b, False) if sa <= sb else (table_b, table_a, True)
    sf, sc = min(sa, sb), max(sa, sb)
    ratio = sc / sf
    if abs(ratio - round(ratio)) > 1e-9:
        raise GridAlignmentError(f"incommensurate steps {sf} and {sc}")
    ratio = int(round(ratio))
    t_max = min(fine.times[-1], coarse.times[-1]) + 1e-12
    idx_f = np.arange(0, fine.n_times, ratio)
    idx_f = idx_f[fine.times[idx_f] <= t_max]
    idx_c = np.arange(coarse.n_times)[coarse.times <= t_max]
    fine_r, coarse_r = fine.restrict(idx_f), coarse.restrict(idx_c)
    if np.max(np.abs(fine_r.times - coarse_r.times)) > 1e-9:
        raise GridAlignmentError("aligned grids do not coincide")
    return (fine_r, coarse_r) if not swap else (coarse_r, fine_r)


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
        return {
            "source_a": self.source_a,
            "source_b": self.source_b,
            "passed": self.passed,
            "kernels": [
                {
                    "kernel": d.kernel,
                    "max_abs": d.max_abs,
                    "rms": d.rms,
                    "n_entries": d.n_entries,
                    "tolerance": d.tolerance,
                    "passed": d.passed,
                }
                for d in self.discrepancies
            ],
            "w2_marginals": self.w2_marginals,
            "w2_tolerance": self.w2_tolerance,
        }


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
) -> CompareReport:
    """Per-kernel max-abs and RMS discrepancies on the aligned common grid."""
    tolerances = tolerances or {}
    a, b = grid_align(table_a, table_b)
    m = a.n_times
    all_pairs = np.ones((m, m), dtype=bool)
    strict_lower = np.tril(np.ones((m, m), dtype=bool), k=-1)
    vec_mask = np.ones(m, dtype=bool)
    specs = [
        ("c_theta", a.c_theta, b.c_theta, all_pairs),
        ("c_theta_star", a.c_theta_star, b.c_theta_star, vec_mask),
        ("c_star_star", np.array([a.c_star_star]), np.array([b.c_star_star]), np.ones(1, bool)),
        ("c_eta", a.c_eta, b.c_eta, all_pairs),
        ("r_theta", a.r_theta, b.r_theta, strict_lower),
        ("r_eta", a.r_eta, b.r_eta, strict_lower),
        ("r_eta_star", a.r_eta_star, b.r_eta_star, vec_mask),
    ]
    if a.alpha.size and b.alpha.size and a.alpha.shape[1] == b.alpha.shape[1]:
        specs.append(("alpha", a.alpha, b.alpha, np.ones(a.alpha.shape, bool)))
    out, passed = [], True
    for name, ga, gb, mask in specs:
        stats = _diff_stats(np.asarray(ga, float), np.asarray(gb, float), mask)
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
