import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmft_lab import kernels, simulator
from dmft_lab.dmft import linear_gaussian_dmft, solve_dmft
from dmft_lab.kernels import (
    COMPARED_KERNELS,
    GridAlignmentError,
    KernelTable,
    compare_tables,
    read_table_csv,
    write_table_csv,
)
from dmft_lab.model import ModelParams
from dmft_lab.priors import GaussianFixed, GaussianMeanMixture, PriorSpec, Theta0Spec


def table_for(gamma, horizon=0.4):
    params = ModelParams(n=40, d=20, sigma2=1.0, beta=1.0, gamma_step=gamma, horizon=horizon)
    return linear_gaussian_dmft(params, 1.0, 1.0)


SMALL = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)


def linear_table_with_stderr():
    table = table_for(0.05)
    table.stderr["c_theta"] = np.abs(table.c_theta) * 0.01
    return table


def mixture_dmft_table():
    # per-path responses: alpha columns, c_theta_star and r_theta stderr
    prior = PriorSpec(
        GaussianMeanMixture([0.5, 0.5], [1.0, 3.0]),
        alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0], theta0=Theta0Spec("prior"),
    )
    return solve_dmft(SMALL, prior, n_paths=400, seed=3).table


def simulate_response_table():
    # responses only between the response steps: NaN holes in r_theta
    prior = PriorSpec(GaussianFixed(1.0), alpha=[])
    return simulator.simulate(SMALL, prior, [5], retain_every=2, response_steps=[0, 4, 8])[0]


def feature_table():
    """Every CSV feature on a non-uniform grid: NaN upper response triangles
    and holes, stderr on some sections with `nan` entries, two alpha columns,
    an all-NaN (empty) section, the scalar c_star_star and extreme floats."""
    table = table_for(0.05).restrict([0, 1, 3, 4, 8])
    rng = np.random.default_rng(4)
    table.c_eta[3, 3], table.c_eta[2, 1], table.c_eta[1, 2] = np.nan, 5e-324, -1.7976931348623157e308
    table.c_theta[1, 0] = -0.0
    upper = np.triu_indices(table.n_times)
    table.r_theta[upper], table.r_eta[upper] = np.nan, np.nan
    table.r_eta_star[:] = np.nan
    table.alpha = rng.normal(size=(table.n_times, 2)) / 3.0
    table.alpha[2, 1] = np.nan
    table.stderr["c_theta"] = np.abs(table.c_theta) * 0.01
    table.stderr["c_theta"][1, 2] = np.nan
    table.stderr["r_theta"] = np.where(np.isnan(table.r_theta), np.nan, 1.0 / 7.0)
    table.stderr["c_theta_star"] = rng.random(table.n_times)
    return table


@pytest.mark.parametrize(
    "make", [linear_table_with_stderr, mixture_dmft_table, simulate_response_table, feature_table]
)
def test_csv_round_trip_exact(tmp_path, make):
    table = make()
    path = tmp_path / "kernels_test.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert back.gamma == table.gamma
    assert back.source == table.source
    assert np.array_equal(back.times, table.times)
    for name in ("c_theta", "c_theta_star", "c_star_star", "c_eta", "r_theta", "r_eta", "r_eta_star"):
        assert np.array_equal(getattr(back, name), getattr(table, name), equal_nan=True), name
    # a table without alpha reads back with shape (n_times, 0)
    assert np.array_equal(back.alpha, table.alpha.reshape(table.n_times, -1), equal_nan=True)
    assert sorted(back.stderr) == sorted(table.stderr)
    for name, se in table.stderr.items():
        assert np.array_equal(back.stderr[name], se, equal_nan=True), name
    write_table_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def block_table(extra):
    """A table whose c_theta section (with stderrs) has exactly `_BLOCK + extra`
    lines: the first entries of its grid, in row-major order, are NaN."""
    lines = kernels._BLOCK + extra
    m = math.isqrt(lines) + 1
    table = table_for(0.01, horizon=0.01 * (m - 1))
    table.stderr["c_theta"] = np.abs(table.c_theta) / 3.0
    table.c_theta.ravel()[: m * m - lines] = np.nan
    return table


def dmft_like_table(m=201):
    """A table shaped like an adaptive MC-DMFT solve's: symmetric c_theta
    (with stderrs) and c_eta, response grids with zero upper triangles (with
    r_theta stderrs), c_theta_star with stderrs and one alpha column."""
    rng = np.random.default_rng(5)

    def symmetric():
        grid = rng.normal(size=(m, m))
        return np.tril(grid) + np.tril(grid, -1).T

    def lower():
        return np.tril(rng.normal(size=(m, m)))

    return KernelTable(
        times=0.01 * np.arange(m), gamma=0.01, source="dmft", c_theta=symmetric(),
        c_theta_star=rng.normal(size=m), c_star_star=1.0, c_eta=symmetric(), r_theta=lower(), r_eta=lower(),
        r_eta_star=rng.normal(size=m), alpha=rng.normal(size=(m, 1)),
        stderr={"c_theta": np.abs(symmetric()), "c_theta_star": np.abs(rng.normal(size=m)), "r_theta": np.abs(lower())},
    )


def _write_by_entries(table, path):
    """Reference writer: every entry goes through `%.17g` on its own, in one
    object array per section and one %-format call."""
    fmt17 = "%.17g".__mod__
    sections = [(name, np.asarray(getattr(table, name)), table.stderr.get(name)) for name in kernels._AXES]
    sections += [(f"alpha_{k}", table.alpha[:, k], None) for k in range(table.alpha.shape[1])]
    with open(path, "w") as fh:
        fh.write(f"t_index,s_index,value,stderr\n# gamma: {fmt17(table.gamma)}\n# source: {table.source}\n")
        fh.write(f"# times: {','.join(map(fmt17, table.times.tolist()))}\n")
        for name, grid, se in sections:
            fh.write(f"# kernel: {name}\n")
            keep = ~np.isnan(grid)
            with_se = se is not None and grid.ndim > 0
            at = np.argwhere(keep)
            rows = np.full((at.shape[0], 4 if with_se else 3), -1, dtype=object)
            rows[:, : grid.ndim] = at
            rows[:, 2] = grid[keep]
            if with_se:
                rows[:, 3] = se[keep]
            fmt = "%d,%d,%.17g" + (",%.17g\n" if with_se else "\n")
            fh.write(fmt * at.shape[0] % tuple(rows.ravel().tolist()))


def _assert_writes_as_reference(table, directory):
    write_table_csv(table, directory / "blocked.csv")
    _write_by_entries(table, directory / "by_entries.csv")
    assert (directory / "blocked.csv").read_bytes() == (directory / "by_entries.csv").read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        linear_table_with_stderr, mixture_dmft_table, simulate_response_table, feature_table,
        lambda: block_table(0), lambda: block_table(1),
    ],
    ids=["linear", "mixture_dmft", "simulate", "features", "one_block", "one_block_and_a_line"],
)
def test_writer_bytes_match_the_per_entry_writer(tmp_path, make):
    _assert_writes_as_reference(make(), tmp_path)


# Values whose text a writer can get wrong: both zeros (equal as floats, not
# as text), NaN, infinities, subnormals and the extremes.
_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]


@st.composite
def tables(draw):
    """Small tables of repeated values from a pool that mixes specials and
    arbitrary floats: NaN holes, NaN stderrs beside finite values, exactly
    mirrored grids, zero to two alpha columns."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=6))

    def grid(shape, mirrored=False):
        out = np.array(draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape), max_size=math.prod(shape))))
        out = out.reshape(shape)
        if mirrored:
            i, j = np.triu_indices(m, 1)
            out[i, j] = out[j, i]
        return out

    grids = {name: grid((m, m), draw(st.booleans())) for name in ("c_theta", "c_eta", "r_theta", "r_eta")}
    grids.update(c_theta_star=grid((m,)), r_eta_star=grid((m,)))
    with_stderr = draw(st.lists(st.sampled_from(sorted(grids)), unique=True))
    return KernelTable(
        times=np.cumsum(draw(st.lists(st.floats(1e-3, 10.0), min_size=m, max_size=m))),
        gamma=draw(st.sampled_from(pool)), source="x", c_star_star=float(grid(())),
        alpha=grid((m, draw(st.integers(0, 2)))), stderr={name: grid(grids[name].shape) for name in with_stderr},
        **grids,
    )


@settings(max_examples=200, deadline=None)
@given(table=tables(), block=st.integers(1, 7))
def test_writer_bytes_match_the_per_entry_writer_on_any_values(table, block):
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(kernels, "_BLOCK", block):
        _assert_writes_as_reference(table, Path(directory))


def test_writer_traced_peak_stays_below_the_file_size(tmp_path):
    # one object per entry of a whole section peaks at about 1.5 times the file
    table, path = dmft_like_table(), tmp_path / "k.csv"
    write_table_csv(table, path)
    tracemalloc.start()
    try:
        write_table_csv(table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def _read_by_lines(path):
    """Reference parser: each section of a table CSV read line by line with
    int() and float(), as {name: (grid, stderr or None)}. A line without a
    stderr field leaves its entry's stderr NaN."""
    lines = path.read_text().splitlines()
    n_times = len(next(x for x in lines if x.startswith("# times:")).split(","))
    out = {}
    for line in lines[1:]:
        if line.startswith("# kernel:"):
            name = line.partition(":")[2].strip()
            axes = 2 if name in ("c_theta", "c_eta", "r_theta", "r_eta") else 0 if name == "c_star_star" else 1
            grid, se = out[name] = [np.full((n_times,) * axes, np.nan), None]
        elif line and not line.startswith("#"):
            t, s, v, *e = line.split(",")
            at = tuple(int(label) for label in (t, s)[: grid.ndim])
            grid[at] = float(v)
            if e:
                se = out[name][1] = np.full(grid.shape, np.nan) if se is None else se
                se[at] = float(e[0])
    return out


def _assert_reads_as_reference(path):
    back, ref = read_table_csv(path), _read_by_lines(path)
    for name, (grid, se) in ref.items():
        got = back.alpha[:, int(name[6:])] if name.startswith("alpha_") else np.asarray(getattr(back, name))
        assert got.tobytes() == grid.tobytes(), name
        assert (back.stderr.get(name) is None) == (se is None), name
        assert se is None or back.stderr[name].tobytes() == se.tobytes(), name
    assert sorted(back.stderr) == sorted(k for k, (_, se) in ref.items() if se is not None)


@pytest.mark.parametrize("make", [linear_table_with_stderr, mixture_dmft_table, feature_table])
def test_csv_reader_matches_line_by_line_parser(tmp_path, make):
    path = tmp_path / "k.csv"
    write_table_csv(make(), path)
    _assert_reads_as_reference(path)


@pytest.mark.parametrize("ending", [b"\r\n"], ids=["crlf"])
def test_csv_reader_reads_other_line_endings(tmp_path, ending):
    # text mode reads a copy of the file with other line endings as the file itself
    path = tmp_path / "k.csv"
    write_table_csv(block_table(1), path)
    path.write_bytes(path.read_bytes().replace(b"\n", ending))
    _assert_reads_as_reference(path)
    assert read_table_csv(path).c_star_star == block_table(1).c_star_star


def block_table_without_stderr():
    # exactly _BLOCK c_theta entries: the first block holds the marker and all but the last
    table = block_table(0)
    table.stderr.clear()
    return table


def _with_a_stderr_on_the_last_c_theta_entry(lines):
    at = lines.index("# kernel: c_eta\n") - 1
    return lines[:at] + [lines[at][:-1] + ",0.25\n"] + lines[at + 1 :]


def _with_an_empty_stderr(lines):
    at = lines.index("# kernel: c_theta\n") + 3  # an entry with a stderr
    return lines[:at] + [lines[at].rpartition(",")[0] + "\n"] + lines[at + 1 :]


def _relabelled(kernel, field, text):
    """An edit that sets field `field` of the first entry of `kernel` to `text`."""

    def edit(lines):
        at = lines.index(f"# kernel: {kernel}\n") + 1
        fields = lines[at].split(",")
        fields[field] = text
        return lines[:at] + [",".join(fields)] + lines[at + 1 :]

    return edit


def _in_the_former_layout(lines):
    """The file as the former layout wrote it: the `t,s,value,stderr` header,
    time texts as labels and an empty field where an entry has no stderr."""
    times = lines[3].partition(":")[2].strip().split(",")
    out = ["t,s,value,stderr\n"]
    for line in lines[1:]:
        if not line.startswith("#"):
            t, s, *rest = line[:-1].split(",")
            line = ",".join([x if x == "-1" else times[int(x)] for x in (t, s)] + rest + [""] * (2 - len(rest))) + "\n"
        out.append(line)
    return out


def _swapped(lines, a, b):
    out = list(lines)
    i, j = out.index(a), out.index(b)
    out[i], out[j] = b, a
    return out


def _with_a_second_c_star_star_entry(lines):
    at = lines.index("# kernel: c_star_star\n") + 1
    return lines[: at + 1] + [lines[at]] + lines[at + 1 :]


@pytest.mark.parametrize(
    "make,edit,match",
    [
        (feature_table, lambda lines: ["t,s,value\n"] + lines[1:], "header"),
        (feature_table, lambda lines: [x for x in lines if not x.startswith("# gamma:")], "gamma"),
        (feature_table, lambda lines: [x for x in lines if not x.startswith("# source:")], "source"),
        (feature_table, lambda lines: [x for x in lines if not x.startswith("# times:")], "times"),
        (feature_table, lambda lines: _swapped(lines, lines[1], lines[2]), "gamma"),
        (feature_table, _relabelled("c_theta", 0, "7"), "not a grid time"),
        (feature_table, _relabelled("c_theta_star", 0, "7"), "not a grid time"),
        (block_table_without_stderr, _with_a_stderr_on_the_last_c_theta_entry, "with and without a stderr"),
        (feature_table, _with_an_empty_stderr, "with and without a stderr"),
        (feature_table, lambda lines: _swapped(lines, "# kernel: alpha_0\n", "# kernel: alpha_1\n"), "alpha_0"),
        (feature_table, lambda lines: _swapped(lines, "# kernel: c_theta\n", "# kernel: c_eta\n"), "c_theta"),
        (feature_table, lambda lines: lines[: lines.index("# kernel: r_eta_star\n")], "r_eta_star"),
        (feature_table, _with_a_second_c_star_star_entry, "more than one entry"),
        (feature_table, lambda lines: lines[:5] + ["\n"] + lines[5:], "c_eta"),
        (feature_table, lambda lines: lines[:-1] + [lines[-1][:-1]], "final newline"),
        (feature_table, _relabelled("c_eta", 1, "1.5"), "not a grid time"),
        (feature_table, _relabelled("r_theta", 0, "5"), "not a grid time"),
        (feature_table, _relabelled("c_theta", 1, "-1"), "not a grid time"),
        (feature_table, _relabelled("c_theta_star", 1, "0"), "is not -1"),
        (feature_table, _relabelled("c_star_star", 0, "0"), "is not -1"),
        (feature_table, _relabelled("c_star_star", 1, "-1,0.5,0.5"), "5 fields"),
        (feature_table, _in_the_former_layout, "header: 't,s,value,stderr'"),
        (feature_table, _relabelled("c_eta", 1, "0#1"), "0#1"),
    ],
    ids=[
        "header", "no_gamma", "no_source", "no_times", "metadata_out_of_order", "off_grid_label",
        "off_grid_vector_label", "stderr_first_seen_after_a_block", "empty_stderr_beside_others",
        "alpha_sections_out_of_order", "kernel_sections_out_of_order", "missing_section",
        "two_c_star_star_entries", "blank_line", "no_final_newline", "non_integer_label",
        "label_equal_to_the_number_of_times", "negative_label_on_a_present_axis", "label_on_the_absent_s_axis",
        "label_on_the_absent_axes_of_c_star_star", "five_fields", "former_layout", "comment_character_in_an_entry",
    ],
)
def test_csv_reader_refuses_malformed_files(tmp_path, make, edit, match):
    path = tmp_path / "k.csv"
    write_table_csv(make(), path)
    lines = path.read_text().splitlines(keepends=True)
    edited = edit(lines)
    assert edited != lines
    path.write_text("".join(edited))
    with pytest.raises(ValueError, match=match):
        read_table_csv(path)


def test_round_trip_preserves_nan_holes(tmp_path, nan_table):
    table = nan_table([0.0, 0.1], 0.1, "simulate")
    table.c_theta[0, 0] = 1.25
    path = tmp_path / "k.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert back.c_theta[0, 0] == 1.25
    assert np.isnan(back.c_theta[1, 1])
    assert np.isnan(back.c_star_star)


def _compared_at(table_a, table_b, idx_a, idx_b, **kwargs):
    """The report of comparing the two tables, asserted equal to the report on
    their restrictions to the given rows; returns the compared times."""
    report = compare_tables(table_a, table_b, **kwargs).to_dict()
    a, b = table_a.restrict(idx_a), table_b.restrict(idx_b)
    assert np.allclose(a.times, b.times, rtol=0, atol=1e-12)
    assert report == compare_tables(a, b).to_dict()
    c_theta = next(k for k in report["kernels"] if k["kernel"] == "c_theta")
    assert c_theta["n_entries"] == a.n_times**2
    assert c_theta["max_abs"] == np.max(np.abs(a.c_theta - b.c_theta))
    return a.times


def test_compare_tables_restricts_fine_to_coarse():
    fine, coarse = table_for(0.01), table_for(0.02)
    times = _compared_at(fine, coarse, np.arange(0, 41, 2), np.arange(21))
    assert times[1] == pytest.approx(0.02)
    # identical grids are compared at every time
    assert np.array_equal(_compared_at(coarse, coarse, np.arange(21), np.arange(21)), coarse.times)


def test_compare_tables_compares_the_shared_times():
    # 0.03 divides into 0.01 steps: the 0.03 grid up to the shorter horizon
    times = _compared_at(table_for(0.01), table_for(0.03, horizon=0.39), np.arange(0, 40, 3), np.arange(14))
    assert times[1] == pytest.approx(0.03)
    # incommensurate steps share every 0.06 up to the shorter horizon
    times = _compared_at(table_for(0.02), table_for(0.03, horizon=0.39), np.arange(0, 19, 3), np.arange(0, 13, 2))
    assert np.allclose(times, 0.06 * np.arange(7))


def test_compare_tables_at_explicit_times():
    table = table_for(0.02)
    times = _compared_at(table_for(0.01), table, [0, 10, 20], [0, 5, 10], times=[0.0, 0.1, 0.2])
    assert np.allclose(times, [0.0, 0.1, 0.2])
    with pytest.raises(GridAlignmentError):
        compare_tables(table, table, times=[0.005])


@pytest.mark.parametrize(
    "times",
    [
        [0.0, 0.04],  # off the 0.03 grid
        [0.0, 0.03],  # off the 0.02 grid
        [0.0, 0.42],  # beyond the 0.02 grid's horizon
        [],
        [0.06, 0.0],
        [0.06, 0.06],
    ],
)
def test_compare_tables_refuses_times_not_on_both_grids(times):
    with pytest.raises(GridAlignmentError):
        compare_tables(table_for(0.02), table_for(0.03, horizon=0.42), times=times)


def test_compare_tables_refuses_tables_that_share_no_time(nan_table):
    a, b = nan_table([0.0, 0.1], 0.1, "x"), nan_table([0.05, 0.15], 0.1, "y")
    with pytest.raises(GridAlignmentError, match="share no time"):
        compare_tables(a, b)


def test_compare_tables_self_is_zero():
    table = table_for(0.02)
    report = compare_tables(table, table, {"default": 1e-12})
    assert report.passed
    assert all(d.max_abs == 0.0 for d in report.discrepancies)


def test_compare_tables_tolerance_gate():
    a, b = table_for(0.04), table_for(0.02)
    report = compare_tables(a, b, {"default": 1e-9})
    assert not report.passed
    loose = compare_tables(a, b, {"default": 1.0})
    assert loose.passed
    names = {d.kernel for d in loose.discrepancies}
    assert {"c_theta", "c_eta", "r_theta", "r_eta", "r_eta_star"} <= names
    d = report.to_dict()
    assert d["source_a"] == "dmft-linear" and len(d["kernels"]) >= 5


def test_compare_skips_missing_entries(nan_table):
    a = nan_table([0.0, 0.1], 0.1, "x")
    b = nan_table([0.0, 0.1], 0.1, "y")
    a.c_theta[:] = 1.0
    b.c_theta[:] = 1.0
    b.c_theta[1, 1] = np.nan
    report = compare_tables(a, b, {"default": 1e-12})
    ct = [d for d in report.discrepancies if d.kernel == "c_theta"][0]
    assert ct.n_entries == 3  # NaN entry ignored


def test_compared_kernels_lists_every_report_entry():
    # the CLI validates tolerance names against this list
    table = table_for(0.05)
    table.alpha = np.zeros((table.n_times, 1))
    report = compare_tables(table, table)
    assert tuple(d.kernel for d in report.discrepancies) == COMPARED_KERNELS


def test_a_table_has_one_alpha_row_per_time():
    table = table_for(0.1)  # no alpha given: no column, one row per time
    assert table.alpha.shape == (table.n_times, 0)
    assert table.restrict([0, 2]).alpha.shape == (2, 0)
    for alpha in (np.zeros((table.n_times - 1, 1)), np.zeros(table.n_times)):
        with pytest.raises(ValueError, match="alpha"):
            replace(table, alpha=alpha)
