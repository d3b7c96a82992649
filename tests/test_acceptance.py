"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The linear DMFT engine solves the Euler chain at step gamma, not the
continuous-time dynamics. Each eigenmode of that chain is an AR(1) process, so
its large-d kernels have closed forms (`mp_oracle` with `gamma > 0`).
Criterion 2 checks the engine against those forms at gamma = 0.01 and prints
the step bias, Euler minus continuous forms: about 1.41 gamma on C_eta.
Criterion 2b checks the continuous limit: every error against the gamma = 0
forms shrinks when the step is halved.
"""

import time

import numpy as np
import pytest

import closed_forms
from dmft_lab import cli, dmft, equilibrium, mp_oracle, simulator
from dmft_lab.kernels import time_index
from dmft_lab.model import ModelParams, sample_instance
from dmft_lab.priors import GaussianLocation, PriorSpec

DELTA, SIGMA2, BETA, LAM, TAU2 = 2.0, 1.0, 1.0, 1.0, 1.0
GAMMA, HORIZON = 0.01, 2.0
D_SIM, N_SIM, REPLICAS = 400, 800, 20
N_PATHS = 20000
SIM_SEED, MC_SEED = 7, 5
COARSE = np.array([0.25 * k for k in range(9)])  # {0, 0.25, ..., 2}


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def params_at(gamma=GAMMA, horizon=HORIZON, n=N_SIM, d=D_SIM):
    return ModelParams(n=n, d=d, sigma2=SIGMA2, beta=BETA, gamma_step=gamma, horizon=horizon)


@pytest.fixture(scope="module")
def oracle_pack():
    oracle = mp_oracle.OracleParams(lam=LAM, sigma2=SIGMA2, delta=DELTA, tau_star2=TAU2)
    return oracle, mp_oracle.mp_quadrature(DELTA, 400)


@pytest.fixture(scope="module")
def adaptive_pack():
    params = params_at()
    prior = PriorSpec(GaussianLocation(1.0), alpha=[0.0], alpha_star=[1.0])
    seeds = [SIM_SEED * 1000 + r for r in range(REPLICAS)]
    table, paths = simulator.simulate(params, prior, seeds, retain_every=10)
    res = dmft.solve_dmft(params, prior, N_PATHS, seed=MC_SEED)
    return params, prior, table, paths, res


def _coarse_idx(times, grid):
    return np.array([int(np.argmin(np.abs(times - t))) for t in grid])


# --------------------------------------------------------------- criterion 1


def test_criterion_01_oracle_self_consistency(oracle_pack):
    oracle, law = oracle_pack
    t0 = time.time()
    checks = closed_forms.criterion_01(oracle, law)
    elapsed = time.time() - t0
    worst, fdt = max(m for m, _ in checks.values()), checks["fdt"][0]
    failed = closed_forms.failed(checks)
    ok = not failed and elapsed < 1.0
    _line(1, ok, f"oracle identities max residual {worst:.2e}, fdt {fdt:.2e}, {elapsed:.2f}s")
    assert not failed
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 2


def _closed_forms(oracle, law, gamma=0.0):
    """Closed-form kernels on the coarse grid, keyed by kernel then by point."""
    vals = {k: {} for k in ("c_theta", "c_theta_star", "c_eta", "alpha_mp", "beta_mp", "gamma_mp")}
    for t in COARSE:
        vals["c_theta_star"][t] = mp_oracle.corr_kernels(t, t, oracle, law, gamma)[1]
        vals["gamma_mp"][t] = mp_oracle.resp_kernels(t, oracle, law, gamma)[2]
        for s in COARSE[COARSE <= t]:
            vals["c_theta"][t, s], _, vals["c_eta"][t, s] = mp_oracle.corr_kernels(t, s, oracle, law, gamma)
            if s < t:
                vals["alpha_mp"][t, s], vals["beta_mp"][t, s], _ = mp_oracle.resp_kernels(
                    t - s, oracle, law, gamma
                )
    return vals


def _max_gaps(a, b):
    return {k: max(abs(a[k][p] - b[k][p]) for p in a[k]) for k in a}


def _linear_vs_oracle_errors(table, oracle, law, gamma=0.0):
    """Max-abs error per kernel family, in the closed forms' own units."""
    closed = _closed_forms(oracle, law, gamma)
    at = dict(zip(COARSE, _coarse_idx(table.times, COARSE)))
    scale = oracle.sigma2 / oracle.delta
    engine = {k: {} for k in closed}
    for t in COARSE:
        engine["c_theta_star"][t] = table.c_theta_star[at[t]]
        engine["gamma_mp"][t] = -scale * table.r_eta_star[at[t]]
    for t, s in closed["c_theta"]:
        engine["c_theta"][t, s] = table.c_theta[at[t], at[s]]
        engine["c_eta"][t, s] = table.c_eta[at[t], at[s]]
    for t, s in closed["alpha_mp"]:
        engine["alpha_mp"][t, s] = table.r_theta[at[t], at[s]]
        engine["beta_mp"][t, s] = -scale * table.r_eta[at[t], at[s]]
    return _max_gaps(engine, closed)


def test_criterion_02_linear_dmft_vs_oracle(oracle_pack, linear_table):
    oracle, law = oracle_pack
    errs = _linear_vs_oracle_errors(linear_table, oracle, law, GAMMA)
    bias = _max_gaps(_closed_forms(oracle, law, GAMMA), _closed_forms(oracle, law))
    worst = max(errs.values())
    detail = "  ".join(f"{k}={errs[k]:.1e} (step bias {bias[k]:.4f})" for k in errs)
    _line(2, worst <= 1e-10, f"gamma=0.01 vs Euler-chain closed forms: {detail}")
    # The engine and the gamma > 0 closed forms describe the same Euler chain,
    # so they agree to round-off; the step bias is the separate gap between
    # that chain and its gamma -> 0 limit, which criterion 2b checks.
    assert worst <= 0.01
    assert worst <= 1e-10


def test_criterion_02b_refinement_strictly_smaller(oracle_pack, linear_table):
    oracle, law = oracle_pack
    coarse_errs = _linear_vs_oracle_errors(linear_table, oracle, law)
    fine = dmft.linear_gaussian_dmft(params_at(gamma=0.005), LAM, TAU2)
    fine_errs = _linear_vs_oracle_errors(fine, oracle, law)
    ok = max(fine_errs.values()) < max(coarse_errs.values())
    strict_each = all(fine_errs[k] < coarse_errs[k] for k in coarse_errs)
    _line(
        2,
        ok,
        f"halved step shrinks the worst error {max(coarse_errs.values()):.4f} -> "
        f"{max(fine_errs.values()):.4f} (entrywise {strict_each})",
    )
    assert ok and strict_each
    assert max(fine_errs.values()) <= 0.01


# --------------------------------------------------------------- criterion 3


def test_criterion_03_mc_dmft_vs_linear(mc_result, linear_table):
    t0 = time.time()
    checks = closed_forms.criterion_03(mc_result.table, linear_table, COARSE)
    failed = closed_forms.failed(checks)
    within_se = not any(name.endswith(" band") for name in failed)
    detail = "  ".join(f"{name}={margin:.4f}" for name, (margin, _) in checks.items() if not name.endswith(" band"))
    _line(3, not failed, f"{detail}  (4se bands {'ok' if within_se else 'violated'}, {time.time() - t0:.0f}s)")
    assert not failed


# --------------------------------------------------------------- criterion 4


def test_criterion_04_simulator_vs_oracle(oracle_pack, sim_pack):
    checks = closed_forms.criterion_04(sim_pack.table, *oracle_pack, sim_pack.times)
    failed = closed_forms.failed(checks)
    detail = "  ".join(f"{kernel}={margin:.4f}" for kernel, (margin, _) in checks.items())
    _line(4, not failed, f"d=400, 20 replicas vs oracle: {detail}")
    assert not failed


# --------------------------------------------------------------- criterion 5


def test_criterion_05_response_identities(mc_result, sim_pack):
    params, prior = sim_pack.params, sim_pack.prior
    inst = sample_instance(params, prior, seed=sim_pack.seeds[0])
    traces = [simulator.response_traces(None, inst, prior, params, [s, s + 1]) for s in (0, 100, 199)]
    checks = closed_forms.criterion_05(mc_result.table, traces)
    failed = closed_forms.failed(checks)
    _line(5, not failed, ", ".join(f"{name} {margin:.1e}" for name, (margin, _) in checks.items()))
    assert not failed


# --------------------------------------------------------------- criterion 6


def test_criterion_06_finite_d_bridge(oracle_pack, finite_d_bridge):
    checks = closed_forms.criterion_06(finite_d_bridge, *oracle_pack)
    failed = closed_forms.failed(checks)
    (dev_theta, _), (dev_star, _) = checks["c_theta"], checks["c_theta_star"]
    _line(6, not failed, f"d=2000 eigenmode oracle vs asymptotic at (1, 0.5): C_theta dev {dev_theta:.5f}, "
          f"C_theta* dev {dev_star:.5f}")
    assert not failed


# --------------------------------------------------------------- criterion 7


def test_criterion_07_equilibrium_closed_forms():
    t0 = time.time()
    checks = closed_forms.criterion_07()
    elapsed = time.time() - t0
    failed = closed_forms.failed(checks)
    (dev_matched, _), (dev_mis, _) = checks["matched"], checks["mismatched mse*"]
    ok = not failed and elapsed < 1.0
    _line(7, ok, f"matched dev {dev_matched:.1e}, mismatched mse* dev {dev_mis:.1e}, {elapsed:.2f}s")
    assert not failed
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 8


def test_criterion_08_stationarity_and_immse():
    checks = closed_forms.criterion_08()
    failed = closed_forms.failed(checks)
    (grad_dev, _), (immse_dev, _) = checks["stationarity"], checks["immse"]
    _line(8, not failed, f"stationarity {grad_dev:.1e}, I-MMSE slope dev {immse_dev:.1e}")
    assert not failed


# --------------------------------------------------------------- criterion 9


def test_criterion_09_long_time_handoff(oracle_pack, long_time_table):
    oracle, law = oracle_pack
    checks = closed_forms.criterion_09(long_time_table, oracle, law)
    failed = closed_forms.failed(checks)
    (dev_theta, _), (dev_eta, _) = checks["c_theta"], checks["c_eta"]
    _line(9, not failed, f"T=10: |C_theta - tau*^2| = {dev_theta:.5f}, |C_eta - delta/sigma2| = {dev_eta:.5f}")
    assert not failed


# -------------------------------------------------------------- criterion 10


def test_criterion_10_marginal_w2(sim_pack, adaptive_pack, mc_result):
    idx = int(np.argmin(np.abs(sim_pack.table.times - 1.0)))
    pooled = np.concatenate([p[idx] for p in sim_pack.paths])
    idx_mc = time_index(mc_result.table.times, 1.0)
    ens = mc_result.paths[idx_mc]
    a, b = simulator.resample_to_common_size(pooled, ens)
    w2_gauss = simulator.wasserstein2_1d(a, b)

    _, _, _, paths_loc, res_loc = adaptive_pack
    pooled_loc = np.concatenate([p[idx] for p in paths_loc])
    ens_loc = res_loc.paths[idx_mc]
    a, b = simulator.resample_to_common_size(pooled_loc, ens_loc)
    w2_loc = simulator.wasserstein2_1d(a, b)
    ok = w2_gauss <= 0.05 and w2_loc <= 0.05
    _line(10, ok, f"W2 at t=1: gaussian {w2_gauss:.4f}, adaptive location {w2_loc:.4f}")
    assert w2_gauss <= 0.05
    assert w2_loc <= 0.05


# -------------------------------------------------------------- criterion 11


def test_criterion_11_adaptive_alpha_trajectory(adaptive_pack):
    params, prior, table, _, res = adaptive_pack
    idx = _coarse_idx(res.table.times, table.times)
    dev = float(np.max(np.abs(table.alpha[:, 0] - res.table.alpha[idx, 0])))
    g = GaussianLocation(1.0)
    grad_norm = float(
        np.linalg.norm(
            equilibrium.grad_F(np.array([1.0]), DELTA, SIGMA2, g, g, alpha_star=np.array([1.0]))
        )
    )
    ok = dev <= 0.05 and grad_norm <= 1e-6
    _line(11, ok, f"alpha trajectory max dev {dev:.4f}; |grad F(alpha*)| = {grad_norm:.1e}")
    assert dev <= 0.05
    assert grad_norm <= 1e-6


# -------------------------------------------------------------- criterion 12


def test_criterion_12_reproducibility(tmp_path):
    base = {
        "seed": 3,
        "model": {"n": 60, "d": 30, "sigma2": 1.0, "beta": 1.0, "gamma": 0.05, "horizon": 0.5},
        "prior": {"family": "gaussian_fixed", "lam": 1.0},
        "replicas": 3,
        "n_paths": 400,
        "retain_every": 2,
    }
    blobs = {}
    for pipeline, fname in (
        ("simulate", "kernels_simulate.csv"),
        ("dmft", "kernels_dmft.csv"),
        ("dmft-linear", "kernels_dmft-linear.csv"),
        ("oracle", "kernels_oracle.csv"),
    ):
        runs = []
        for tag, threads in (("x", 1), ("y", 1), ("z", 2)):
            out = tmp_path / f"{pipeline}_{tag}"
            cfg = dict(base, pipeline=pipeline, out=str(out))
            assert cli.run(cfg, threads=threads) == 0
            runs.append((out / fname).read_bytes())
        blobs[pipeline] = runs[0] == runs[1] == runs[2]
    ok = all(blobs.values())
    _line(12, ok, f"byte-identical reruns (incl. thread-count variation): {blobs}")
    assert ok
