import numpy as np
import pytest

from dmft_lab.dmft import linear_gaussian_dmft
from dmft_lab.kernels import (
    COMPARED_KERNELS,
    GridAlignmentError,
    compare_tables,
    empty_table,
    grid_align,
    read_table_csv,
    restrict_to_times,
    write_table_csv,
)
from dmft_lab.model import ModelParams


def table_for(gamma, horizon=0.4):
    params = ModelParams(n=40, d=20, sigma2=1.0, beta=1.0, gamma_step=gamma, horizon=horizon)
    return linear_gaussian_dmft(params, 1.0, 1.0)


def test_csv_round_trip_exact(tmp_path):
    table = table_for(0.05)
    table.stderr["c_theta"] = np.abs(table.c_theta) * 0.01
    path = tmp_path / "kernels_test.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert back.gamma == table.gamma
    assert back.source == table.source
    assert np.array_equal(back.times, table.times)
    assert np.array_equal(back.c_theta, table.c_theta)
    assert np.array_equal(back.c_theta_star, table.c_theta_star)
    assert back.c_star_star == table.c_star_star
    assert np.array_equal(back.c_eta, table.c_eta)
    assert np.array_equal(
        np.nan_to_num(back.r_theta, nan=-7.0), np.nan_to_num(table.r_theta, nan=-7.0)
    )
    assert np.array_equal(back.r_eta_star, table.r_eta_star)
    assert np.array_equal(back.stderr["c_theta"], table.stderr["c_theta"])


def test_round_trip_preserves_nan_holes(tmp_path):
    table = empty_table([0.0, 0.1], 0.1, "simulate")
    table.c_theta[0, 0] = 1.25
    path = tmp_path / "k.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert back.c_theta[0, 0] == 1.25
    assert np.isnan(back.c_theta[1, 1])
    assert np.isnan(back.c_star_star)


def test_grid_align_restricts_fine_to_coarse():
    fine, coarse = table_for(0.01), table_for(0.02)
    a, b = grid_align(fine, coarse)
    assert np.array_equal(a.times, b.times)
    assert a.times[1] == pytest.approx(0.02)
    # identical grids pass through unchanged
    c, d = grid_align(coarse, coarse)
    assert np.array_equal(c.times, coarse.times)


def test_grid_align_divisibility_rule():
    a, b = grid_align(table_for(0.01), table_for(0.03, horizon=0.39))
    assert a.times[1] == pytest.approx(0.03)
    with pytest.raises(GridAlignmentError):
        grid_align(table_for(0.02), table_for(0.03, horizon=0.39))


def test_restrict_to_times_exact_match():
    table = table_for(0.02)
    sub = restrict_to_times(table, [0.0, 0.1, 0.2])
    assert np.allclose(sub.times, [0.0, 0.1, 0.2])
    assert sub.c_theta[2, 1] == table.c_theta[10, 5]
    with pytest.raises(GridAlignmentError):
        restrict_to_times(table, [0.005])


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


def test_compare_skips_missing_entries():
    a = empty_table([0.0, 0.1], 0.1, "x")
    b = empty_table([0.0, 0.1], 0.1, "y")
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
