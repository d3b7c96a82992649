"""Kernel tables shared by all pipelines, plus CSV/JSON I/O and comparisons.

A KernelTable holds correlation and response grids over a set of physical
times. Response grids are stored in step-density units (value per unit time),
which is the gamma-independent object that all sources can be compared on;
raw per-step responses of a discretized source are recovered by multiplying
by its step. Entries that a source did not compute are NaN.

CSV layout (one file per table), the only one `read_table_csv` reads: the
`t,s,value,stderr` header, the `# gamma:`, `# source:` and `# times:` lines,
then a `# kernel: <name>` section per kernel in `_AXES` order and one per
alpha column, alpha_0, alpha_1, ... Every entry of a section has a stderr, or
none has. Vector kernels use s = -1, and the scalar c_star_star, at most one
entry, uses t = s = -1. The file ends with a newline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, count, islice, repeat
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
    alpha: Optional[np.ndarray] = None  # one row per time; None = no alpha, shape (n_times, 0)
    stderr: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name, axes in _AXES.items():
            shape = (self.times.size,) * axes
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}")
        self.alpha = np.zeros((self.times.size, 0)) if self.alpha is None else np.asarray(self.alpha)
        if self.alpha.ndim != 2 or len(self.alpha) != self.times.size:
            raise ValueError(f"alpha must have shape ({self.times.size}, K)")

    @property
    def n_times(self) -> int:
        return self.times.size

    def restrict(self, idx: np.ndarray) -> "KernelTable":
        idx = np.asarray(idx, dtype=int)
        sub = lambda grid: np.asarray(grid)[np.ix_(*[idx] * np.ndim(grid))]
        return replace(
            self,
            times=self.times[idx],
            alpha=self.alpha[idx],
            stderr={k: sub(v) for k, v in self.stderr.items()},
            **{name: sub(getattr(self, name)) for name in _AXES},
        )


# ---------------------------------------------------------------- CSV I/O

_HEADER = "t,s,value,stderr"
# Lines of a section written, or read and parsed, at a time.
_BLOCK = 4096


def _fmt(x: float) -> str:
    return "%.17g" % x


def _distinct_texts(values: np.ndarray):
    """`%.17g` of each distinct bit pattern among the float64 values, and the
    index of each value's text. Bits, not float equality, tell values apart:
    -0.0 and 0.0 print differently."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(_fmt, bits.view(np.float64).tolist())), dtype=object), inverse


def write_table_csv(table: KernelTable, path) -> None:
    """Write the table. Each section formats every distinct value (and
    stderr) once, then joins and writes its lines `_BLOCK` entries at a time,
    so no Python object is made per entry of a whole section."""
    labels = np.array([_fmt(t) for t in table.times.tolist()], dtype=object)
    sections = [(name, getattr(table, name), table.stderr.get(name)) for name in _AXES]
    sections += [(f"alpha_{k}", table.alpha[:, k], None) for k in range(table.alpha.shape[1])]
    with open(path, "w") as fh:
        fh.write(f"{_HEADER}\n# gamma: {_fmt(table.gamma)}\n# source: {table.source}\n")
        fh.write(f"# times: {','.join(labels)}\n")
        for name, grid, se in sections:
            fh.write(f"# kernel: {name}\n")
            grid = np.asarray(grid, dtype=np.float64)
            at = np.flatnonzero(~np.isnan(grid))  # entries in row-major order
            # the fields t, s, value, stderr of a block of lines and their separators;
            # s (and t) is -1 where the kernel has no such axis, the stderr empty without one
            fields = np.empty((min(at.size, _BLOCK), 8), dtype=object)
            fields[:] = np.array(["-1", ",", "-1", ",", "", ",", "", "\n"], dtype=object)
            columns = [(4, _distinct_texts(grid.ravel()[at]))]
            if se is not None and grid.ndim > 0:
                columns.append((6, _distinct_texts(np.asarray(se, dtype=np.float64).ravel()[at])))
            for start in range(0, at.size, _BLOCK):
                flat = at[start : start + _BLOCK]
                rows = fields[: flat.size]
                # (row, column) of each flat index, of which the kernel's axes are the last ndim
                for k, axis in enumerate(np.divmod(flat, table.n_times)[2 - grid.ndim :]):
                    rows[:, 2 * k] = labels[axis]
                for k, (texts, inverse) in columns:
                    rows[:, k] = texts[inverse[start : start + _BLOCK]]
                fh.write("".join(rows.ravel().tolist()))


def read_table_csv(path) -> KernelTable:
    """Read a table in the CSV layout (module docstring) and refuse any
    other; a missing final newline marks a truncated write. Each line is
    tested once, for a leading '#'; the entries between markers are parsed by
    numpy's C reader `_BLOCK` lines at a time and put into their grid at once.
    An entry whose label is not a grid time raises."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        meta = {}
        for key in ("gamma", "source", "times"):
            line = fh.readline()
            if not line.startswith(f"# {key}:"):
                raise ValueError(f"expected the '# {key}:' line, got {line.strip()!r}")
            meta[key] = line.partition(":")[2].strip()
        times = np.array([float(v) for v in meta["times"].split(",")])
        grids = {name: np.full((times.size,) * axes, np.nan) for name, axes in _AXES.items()}
        stderr = {}
        names = chain(_AXES, map("alpha_{}".format, count()))  # the sections, in order
        name = None  # of the current section
        while lines := list(islice(fh, _BLOCK)):
            if not lines[-1].endswith("\n"):
                raise ValueError("the CSV has no final newline: a truncated write")
            # markers start with '#'; the marker check refuses a blank line
            breaks = [i for i, line in enumerate(lines) if line[0] in "#\n"]
            start = 0
            for stop in breaks + [len(lines)]:
                if stop > start:
                    if name is None:
                        raise ValueError(f"entry before any '# kernel:' line: {lines[start].strip()!r}")
                    rows = _parse_block(lines[start:stop], name)
                    if not entries and rows.shape[1] == 4:
                        stderr[name] = np.full(grid.shape, np.nan)
                    if (name in stderr) != (rows.shape[1] == 4):
                        raise ValueError(f"kernel {name}: entries with and without a stderr")
                    entries += len(rows)
                    if not grid.ndim and entries > 1:
                        raise ValueError(f"kernel {name}: more than one entry")
                    at = tuple(_grid_index(times, rows[:, k], name) for k in range(grid.ndim))
                    rows = rows if grid.ndim else rows[0]
                    grid[at] = rows[..., 2]
                    if name in stderr:
                        stderr[name][at] = rows[..., 3]
                if stop < len(lines):
                    name = next(names)
                    if lines[stop] != f"# kernel: {name}\n":
                        raise ValueError(f"expected '# kernel: {name}', got {lines[stop].strip()!r}")
                    if name not in grids:  # an alpha column
                        grids[name] = np.full(times.size, np.nan)
                    grid, entries = grids[name], 0
                start = stop + 1
    if (missing := next(names)) in grids:
        raise ValueError(f"the CSV ends before the '# kernel: {missing}' section")
    alpha = [grids.pop(f"alpha_{k}") for k in range(len(grids) - len(_AXES))]
    grids["c_star_star"] = float(grids["c_star_star"])
    grids["alpha"] = np.stack(alpha, axis=1) if alpha else None
    return KernelTable(times, float(meta["gamma"]), meta["source"], stderr=stderr, **grids)


def _parse_block(lines: list, name: str) -> np.ndarray:
    """(entries, 3) rows t, s, value of a block of entry lines without a
    stderr, or (entries, 4) rows of one in which every line has one."""
    no_stderr = sum(map(str.endswith, lines, repeat(",\n")))
    if no_stderr == len(lines):
        return np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2), ndmin=2)
    if no_stderr:
        raise ValueError(f"kernel {name}: entries with and without a stderr")
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _grid_index(times: np.ndarray, labels: np.ndarray, kernel: str) -> np.ndarray:
    """Index of each label among the grid times, which it must equal exactly."""
    order = np.argsort(times, kind="stable")
    at = order[np.minimum(np.searchsorted(times, labels, sorter=order), times.size - 1)]
    off = times[at] != labels
    if np.any(off):
        raise ValueError(f"kernel {kernel}: label {labels[off][0]!r} is not a grid time")
    return at


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
