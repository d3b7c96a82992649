import numpy as np
import pytest

from dmft_lab import simulator
from dmft_lab.dmft import linear_gaussian_dmft, solve_dmft
from dmft_lab.kernels import (
    COMPARED_KERNELS,
    GridAlignmentError,
    compare_tables,
    read_table_csv,
    write_table_csv,
)
from dmft_lab.model import ModelParams, sample_instance
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
    inst = sample_instance(SMALL, prior, seed=5)
    traj = simulator.evolve(inst, prior, SMALL, seed=5, retain_every=2)
    table = simulator.empirical_kernels([traj], [inst], SMALL)
    traces = simulator.response_traces(None, inst, prior, SMALL, [0, 4, 8])
    simulator.fill_response(table, [traces], [0, 4, 8])
    return table


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


def _read_by_lines(path):
    """Reference parser: each section of a table CSV read line by line with
    float(), as {name: (grid, stderr or None)}. An empty stderr field is NaN
    once another entry of its section has one."""
    lines = path.read_text().splitlines()
    times = [float(v) for v in next(x for x in lines if x.startswith("# times:")).partition(":")[2].split(",")]
    index = {t: i for i, t in enumerate(times)}
    out = {}
    for line in lines[1:]:
        if line.startswith("# kernel:"):
            name = line.partition(":")[2].strip()
            axes = 2 if name in ("c_theta", "c_eta", "r_theta", "r_eta") else 0 if name == "c_star_star" else 1
            grid, se = out[name] = [np.full((len(times),) * axes, np.nan), None]
        elif line and not line.startswith("#"):
            t, s, v, e = line.split(",")
            at = tuple(index[float(label)] for label in (t, s)[: grid.ndim])
            grid[at] = float(v)
            if e:
                se = out[name][1] = np.full(grid.shape, np.nan) if se is None else se
                se[at] = float(e)
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


def test_csv_reader_reads_an_empty_stderr_beside_others_as_nan(tmp_path):
    path = tmp_path / "k.csv"
    write_table_csv(feature_table(), path)
    lines = path.read_text().splitlines()
    at = lines.index("# kernel: c_theta") + 3  # an entry with a stderr
    lines[at] = lines[at].rpartition(",")[0] + ","
    path.write_text("\n".join(lines) + "\n")
    _assert_reads_as_reference(path)
    assert np.isnan(read_table_csv(path).stderr["c_theta"][0, 2])


@pytest.mark.parametrize(
    "edit,match",
    [
        (lambda lines: ["t,s,value"] + lines[1:], "header"),
        (lambda lines: [x for x in lines if not x.startswith("# times:")], "times"),
        (lambda lines: [x.replace("0.15000000000000002,0,", "0.15,0,") for x in lines], "not a grid time"),
        (lambda lines: [x.replace("0.40000000000000002,-1,", "0.41,-1,") for x in lines], "not a grid time"),
    ],
    ids=["header", "no_times", "off_grid_label", "off_grid_vector_label"],
)
def test_csv_reader_refuses_malformed_files(tmp_path, edit, match):
    path = tmp_path / "k.csv"
    write_table_csv(feature_table(), path)
    lines = path.read_text().splitlines()
    edited = edit(lines)
    assert edited != lines
    path.write_text("\n".join(edited) + "\n")
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
