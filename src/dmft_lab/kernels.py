"""Kernel tables shared by all pipelines, plus CSV/JSON I/O and comparisons.

A KernelTable holds correlation and response grids over a set of physical
times. Response grids are stored in step-density units (value per unit time),
which is the gamma-independent object that all sources can be compared on;
raw per-step responses of a discretized source are recovered by multiplying
by its step. Entries that a source did not compute are NaN.

CSV layout (one file per table), the only one `read_table_csv` reads: the
`t_index,s_index,value,stderr` header, the `# gamma:`, `# source:` and
`# times:` lines, then a `# kernel: <name>` section per kernel in `_AXES`
order and one per alpha column, alpha_0, alpha_1, ... An entry line is
`t,s,value[,stderr]`, t and s indices of the `# times:` grid and floats in
`%.17g`; every entry of a section has a stderr, or none has. Vector kernels
use s = -1, and c_star_star, at most one entry, t = s = -1. The file ends
with a newline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, count, islice
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

_HEADER = "t_index,s_index,value,stderr"
# Lines of a section written, or read and parsed, at a time.
_BLOCK = 4096


def _distinct_texts(values: np.ndarray, end: str):
    """`%.17g` and `end` of each distinct bit pattern among the float64
    values (bits, not float equality: -0.0 and 0.0 print differently), in a
    fixed-width bytes array made `_BLOCK` texts at a time, so no Python object
    is held per distinct value; and the index of each value's text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.empty(bits.size, dtype="S25")  # 24 characters at most (-2.2250738585072014e-308), and `end`
    fmt = ("%.17g" + end).__mod__
    for start in range(0, bits.size, _BLOCK):
        texts[start : start + _BLOCK] = list(map(fmt, bits[start : start + _BLOCK].view(np.float64).tolist()))
    return texts, inverse.astype(np.int32)


def write_table_csv(table: KernelTable, path) -> None:
    """Write the table in the CSV layout (module docstring), one section at a time."""
    # "i," for each grid index i, and last the -1 of an absent axis
    labels = np.array([b"%d," % i for i in range(table.n_times)] + [b"-1,"])
    sections = [(name, getattr(table, name), table.stderr.get(name)) for name in _AXES]
    sections += [(f"alpha_{k}", table.alpha[:, k], None) for k in range(table.alpha.shape[1])]
    with open(path, "wb") as fh:
        times = ",".join(map("%.17g".__mod__, table.times.tolist()))
        fh.write(f"{_HEADER}\n# gamma: {table.gamma:.17g}\n# source: {table.source}\n# times: {times}\n".encode())
        for name, grid, se in sections:
            fh.write(b"# kernel: %s\n" % name.encode())
            _write_section(fh, np.asarray(grid, dtype=np.float64), se, labels)


def _write_section(fh, grid: np.ndarray, se, labels: np.ndarray) -> None:
    """Format every distinct value (and stderr) of one kernel once, then write
    its lines `_BLOCK` at a time from fixed-width records, with no Python
    object per entry. Its texts are freed on return."""
    at = np.flatnonzero(~np.isnan(grid))  # entries in row-major order
    columns = [grid] + ([np.asarray(se, dtype=np.float64)] if se is not None and grid.ndim > 0 else [])
    texts = [_distinct_texts(c.ravel()[at], "\n" if k == len(columns) - 1 else ",") for k, c in enumerate(columns)]
    # a line as one record of the NUL-padded fields t, s, value (and stderr), each with the
    # separator that follows it; t and s are -1 where the kernel has no such axis
    fields = [("t", labels.dtype), ("s", labels.dtype)] + [(f"v{k}", c.dtype) for k, (c, _) in enumerate(texts)]
    lines = np.empty(min(at.size, _BLOCK), dtype=fields)
    lines["t"] = lines["s"] = labels[-1]
    for start in range(0, at.size, _BLOCK):
        flat = at[start : start + _BLOCK]
        block = lines[: flat.size]
        # (row, column) of each flat index, of which the kernel's axes are the last ndim
        for key, axis in zip("ts", np.divmod(flat, labels.size - 1)[2 - grid.ndim :]):
            block[key] = labels[axis]
        for k, (column, inverse) in enumerate(texts):
            block[f"v{k}"] = column[inverse[start : start + _BLOCK]]
        chars = block.view(np.uint8)
        fh.write(chars[chars != 0])  # the lines without their padding


def read_table_csv(path) -> KernelTable:
    """Read a table in the CSV layout (module docstring) and refuse any
    other; a missing final newline marks a truncated write. Each line is
    tested once, for a leading '#'; the entries between markers are parsed by
    numpy's C reader `_BLOCK` lines at a time and put into their grid at once.
    A label that is not a grid index, or -1 on an absent axis, raises."""
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
                    at = tuple(_grid_index(rows[:, k], times.size if k < grid.ndim else 0, name) for k in (0, 1))
                    at, rows = at[: grid.ndim], rows if grid.ndim else rows[0]
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
    stderr, or (entries, 4) rows of one in which every line has one; numpy's
    reader refuses a block whose lines differ in their number of fields."""
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        if len({line.count(",") for line in lines}) > 1:
            raise ValueError(f"kernel {name}: entries with and without a stderr") from err
        raise
    if rows.shape[1] not in (3, 4):
        raise ValueError(f"kernel {name}: an entry has {rows.shape[1]} fields, not 3 or 4")
    return rows


def _grid_index(labels: np.ndarray, size: int, kernel: str) -> np.ndarray:
    """The labels of one axis as indices of its `size` grid times. An axis
    the kernel does not have, `size` 0, takes only the label -1."""
    low, high = (0, size) if size else (-1, 0)
    inside = (labels >= low) & (labels < high)  # NaN is outside
    at = np.where(inside, labels, low).astype(np.intp)
    if np.any(bad := ~inside | (at != labels)):
        want = "a grid time's index" if size else "-1, on an axis the kernel does not have"
        raise ValueError(f"kernel {kernel}: label {float(labels[bad][0])!r} is not {want}")
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
